module R = Hcv_resilience

type conn = {
  fd : Unix.file_descr;
  frame : Frame.t;
  out : Buffer.t;  (** rendered responses not yet handed to the writer *)
  mutable wip : string;  (** the chunk currently being written *)
  mutable sent : int;  (** prefix of [wip] already written *)
  mutable closed : bool;
  mutable eof : bool;
      (** peer half-closed: stop reading, answer what is queued, then
          reap *)
  mutable last_read : float;
      (** responsive-clock time of the last byte received *)
  mutable line_started : float;
      (** responsive-clock time the torn line in progress began — a
          slowloris peer dribbling one byte at a time keeps [last_read]
          fresh, so the slow-client timeout must measure how long a
          line has failed to complete, not how recently bytes came *)
}

let out_len c = String.length c.wip - c.sent + Buffer.length c.out

type t = {
  listen : Unix.file_descr;
  dispatch : Dispatch.t;
  batch_max : int;
  max_line : int;
  max_requests : int option;
  idle_timeout_s : float;
  slow_timeout_s : float;
  max_pending : int;
  max_out : int;
  drain_grace_s : float;
  mutable conns : conn list;
  mutable stopping : bool;
  mutable drain_deadline : float option;
  mutable blocked_s : float;
      (** cumulative seconds the reactor spent inside [Dispatch.handle],
          during which no peer could possibly be read from *)
}

(* The hygiene clock: wall time minus time the reactor itself was
   blocked computing a batch.  A single-threaded reactor that just
   spent three seconds scheduling must not reap a peer whose line was
   torn right before the batch — the peer never got a chance to finish.
   A genuine slowloris still accrues responsive time and is reaped. *)
let now_r t = Unix.gettimeofday () -. t.blocked_s

(* Claiming the endpoint must never steal it from a live daemon or
   delete an unrelated file: only a socket file nobody accepts on is
   stale, and only that may be unlinked. *)
let listen_unix path =
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      Fun.protect
        ~finally:(fun () -> try Unix.close probe with Unix.Unix_error _ -> ())
        (fun () ->
          match Unix.connect probe (Unix.ADDR_UNIX path) with
          | () -> true
          | exception Unix.Unix_error _ -> false)
    in
    if live then
      failwith (Printf.sprintf "%s: a daemon is already listening there" path)
    else (try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ ->
    failwith (Printf.sprintf "%s: refusing to replace a non-socket file" path)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let listen_tcp ~host ~port =
  let addr =
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found -> Unix.inet_addr_of_string host
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (addr, port));
  Unix.listen fd 64;
  fd

let create ?(batch_max = 256) ?(max_line = 1 lsl 20) ?max_requests
    ?(idle_timeout_s = 300.) ?(slow_timeout_s = 10.) ?(max_pending = 512)
    ?(max_out = 8 lsl 20) ?(drain_grace_s = 5.) ~dispatch listen =
  Unix.set_nonblock listen;
  let t =
    {
      listen;
      dispatch;
      batch_max;
      max_line;
      max_requests;
      idle_timeout_s;
      slow_timeout_s;
      max_pending;
      max_out;
      drain_grace_s;
      conns = [];
      stopping = false;
      drain_deadline = None;
      blocked_s = 0.0;
    }
  in
  Dispatch.set_gauges dispatch (fun () ->
      [
        ( "queue_depth",
          float_of_int
            (List.fold_left (fun a c -> a + Frame.queued c.frame) 0 t.conns)
        );
        ("inflight", float_of_int (List.length t.conns));
      ]);
  t

let close_conn t c =
  if not c.closed then begin
    c.closed <- true;
    (try Unix.close c.fd with Unix.Unix_error _ -> ())
  end;
  t.conns <- List.filter (fun c' -> c' != c) t.conns

let queue_line c line =
  Buffer.add_string c.out line;
  Buffer.add_char c.out '\n'

(* Write as much buffered output as the socket accepts.  Queued
   responses are promoted from [out] to [wip] with one
   [Buffer.contents] per chunk; a partial write only advances [sent],
   so a slow reader with a large backlog never re-materializes the
   buffer.  EPIPE or a reset drops the connection (its remaining
   responses with it).  A firing [Slow_write] fault shrinks each write
   to one byte — a pure granularity perturbation, so chaos runs keep
   the exact response bytes. *)
let rec flush_conn t c =
  if c.sent = String.length c.wip then begin
    c.wip <- "";
    c.sent <- 0;
    if Buffer.length c.out > 0 then begin
      c.wip <- Buffer.contents c.out;
      Buffer.clear c.out
    end
  end;
  let len = String.length c.wip - c.sent in
  let len = if len > 1 && R.Inject.fire R.Inject.Slow_write then 1 else len in
  if len > 0 then
    match Unix.write_substring c.fd c.wip c.sent len with
    | n ->
      c.sent <- c.sent + n;
      if c.sent = String.length c.wip then flush_conn t c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> close_conn t c

let accept_ready t =
  let rec go () =
    match Unix.accept t.listen with
    | fd, _ ->
      Unix.set_nonblock fd;
      t.conns <-
        t.conns
        @ [
            {
              fd;
              frame = Frame.create ~max_line:t.max_line ();
              out = Buffer.create 256;
              wip = "";
              sent = 0;
              closed = false;
              eof = false;
              last_read = now_r t;
              line_started = now_r t;
            };
          ];
      go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

(* [Conn_close] simulates a peer reset (the slot is reclaimed, nothing
   else is disturbed); [Conn_stall] a reactor hiccup; [Torn_frame]
   shrinks the read to one byte, exercising every torn-line resume path
   in {!Frame} without changing what was received. *)
let read_ready t c =
  if R.Inject.fire R.Inject.Conn_close then close_conn t c
  else begin
    if R.Inject.fire R.Inject.Conn_stall then Unix.sleepf 0.002;
    let size = if R.Inject.fire R.Inject.Torn_frame then 1 else 65536 in
    let buf = Bytes.create size in
    match Unix.read c.fd buf 0 size with
    | 0 ->
      (* Half-close: the torn line in progress can never complete, but
         complete pipelined lines still get their answers before the
         slot is reclaimed. *)
      c.eof <- true;
      ignore (Frame.drop_partial c.frame)
    | n ->
      c.last_read <- now_r t;
      Frame.feed c.frame (Bytes.sub_string buf 0 n);
      if Frame.pending c.frame = 0 then c.line_started <- c.last_read
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> close_conn t c
  end

(* The lines the reactor answers without dispatching them are still
   rendered and counted by the dispatcher. *)
let refuse t c ?id d = queue_line c (Dispatch.refuse t.dispatch ?id d)

(* Pop [c]'s next framed item; an oversized line is answered in place,
   a complete one goes to [k]. *)
let pop t c k =
  match Frame.pop c.frame with
  | None -> false
  | Some (Frame.Oversized n) ->
    refuse t c (Proto.oversized_diag n);
    true
  | Some (Frame.Line line) ->
    k line;
    true

(* Admission control: a connection whose complete-line backlog exceeds
   [max_pending] gets the oldest excess answered [overloaded]
   immediately — deterministic shedding that costs no scheduling work,
   keeps per-connection response order, and only ever penalises the
   flooding connection.  The id is salvaged the way [Proto.parse]
   errors do, so the answer can still be correlated. *)
let shed_excess t c =
  let depth = Frame.queued c.frame in
  for _ = 1 to depth - t.max_pending do
    ignore
      (pop t c (fun line ->
           let id =
             match Proto.parse line with
             | Ok { Proto.id; _ } -> Some id
             | Error (id, _) -> id
           in
           refuse t c ?id (Proto.overloaded_diag ~queue_depth:depth)))
  done

let run ?obs t =
  let finally () =
    (try Unix.close t.listen with Unix.Unix_error _ -> ());
    List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
      t.conns;
    t.conns <- []
  in
  let flushed () = List.for_all (fun c -> out_len c = 0) t.conns in
  let residual () =
    List.exists (fun c -> Frame.queued c.frame > 0) t.conns
  in
  let max_reached () =
    match t.max_requests with
    | Some m -> Dispatch.served t.dispatch >= m
    | None -> false
  in
  (* Draining: stop accepting and reading, answer every complete line
     already buffered, flush, exit.  [drain_grace_s] bounds how long a
     peer refusing to read its responses can hold the exit hostage. *)
  let draining () = t.stopping || max_reached () in
  Fun.protect ~finally (fun () ->
      while not (draining () && (not (residual ())) && flushed ()) do
        let now = now_r t in
        (if draining () then
           match t.drain_deadline with
           | None -> t.drain_deadline <- Some (now +. t.drain_grace_s)
           | Some dl ->
             if now > dl then List.iter (fun c -> close_conn t c) t.conns);
        if not (draining () && (not (residual ())) && flushed ()) then begin
          let rds =
            if draining () then []
            else
              [ t.listen ]
              @ List.filter_map
                  (fun c -> if c.eof then None else Some c.fd)
                  t.conns
          in
          let wrs =
            List.filter_map
              (fun c -> if out_len c > 0 then Some c.fd else None)
              t.conns
          in
          (* A round that filled [batch_max] leaves complete lines
             queued in the frames: poll instead of blocking so they are
             served without waiting for new socket bytes.  Otherwise
             sleep at most until the next hygiene deadline. *)
          let timeout =
            if residual () then 0.0
            else if draining () then 0.05
            else if t.conns = [] then -1.0
            else
              let next =
                List.fold_left
                  (fun acc c ->
                    let dl =
                      if Frame.pending c.frame > 0 then
                        c.line_started +. t.slow_timeout_s
                      else c.last_read +. t.idle_timeout_s
                    in
                    Float.min acc dl)
                  infinity t.conns
              in
              if Float.is_finite next then Float.max 0.01 (next -. now)
              else -1.0
          in
          (match Unix.select rds wrs [] timeout with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | rd, wr, _ ->
            if List.mem t.listen rd then accept_ready t;
            List.iter
              (fun c ->
                if (not c.closed) && List.mem c.fd rd then read_ready t c)
              t.conns;
            List.iter (fun c -> if not c.closed then shed_excess t c) t.conns;
            (* Drain complete lines: control ops and parse errors answer
               immediately; run requests accumulate into this round's
               batch (per-connection arrival order is preserved because
               a connection's lines land in the batch in pop order and
               the responses are queued back in batch order). *)
            let batch = ref [] (* (conn, envelope), reversed *) in
            let batch_n = ref 0 in
            List.iter
              (fun c ->
                let rec drain () =
                  if
                    !batch_n < t.batch_max
                    && pop t c (fun line ->
                           match Proto.parse line with
                           | Error (id, d) -> refuse t c ?id d
                           | Ok env ->
                             (match env.Proto.req with
                             | Proto.Shutdown -> t.stopping <- true
                             | _ -> ());
                             batch := (c, env) :: !batch;
                             incr batch_n)
                  then drain ()
                in
                drain ())
              t.conns;
            let batch = List.rev !batch in
            if batch <> [] then begin
              let was_draining = draining () in
              let t0 = Unix.gettimeofday () in
              let lines =
                Dispatch.handle t.dispatch ?obs (List.map snd batch)
              in
              t.blocked_s <- t.blocked_s +. (Unix.gettimeofday () -. t0);
              List.iter2
                (fun (c, _) line ->
                  if not c.closed then queue_line c line;
                  if was_draining then Dispatch.note_drained t.dispatch)
                batch lines
            end;
            List.iter
              (fun c ->
                if
                  (not c.closed)
                  && (List.mem c.fd wr || out_len c > 0)
                then flush_conn t c)
              t.conns;
            (* Connection hygiene, after the flush so transient output
               bursts are not mistaken for a slow reader: reap peers
               whose backlog blew [max_out], half-closed peers with
               nothing left to answer, slowloris peers dribbling a torn
               line, and idle peers — all on the responsive clock. *)
            let now = now_r t in
            List.iter
              (fun c ->
                if not c.closed then
                  if out_len c > t.max_out then close_conn t c
                  else if
                    c.eof && Frame.queued c.frame = 0 && out_len c = 0
                  then close_conn t c
                  else if
                    Frame.pending c.frame > 0
                    && now -. c.line_started > t.slow_timeout_s
                  then close_conn t c
                  else if
                    Frame.pending c.frame = 0
                    && Frame.queued c.frame = 0
                    && out_len c = 0
                    && now -. c.last_read > t.idle_timeout_s
                  then close_conn t c)
              t.conns)
        end
      done)
