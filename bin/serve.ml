(* The scheduling-as-a-service plane: the serve daemon and the loadgen
   client that drives it. *)

open Cmdliner
open Common
module S = Hcv_serve

let socket_arg =
  Arg.(
    value & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path (exactly one of --socket/--tcp).")

let tcp_arg =
  Arg.(
    value & opt (some string) None
    & info [ "tcp" ] ~docv:"HOST:PORT" ~doc:"TCP endpoint.")

let parse_tcp hp =
  match String.rindex_opt hp ':' with
  | None -> Error (Printf.sprintf "bad endpoint %S (want HOST:PORT)" hp)
  | Some i -> (
    let host = String.sub hp 0 i in
    match int_of_string_opt (String.sub hp (i + 1) (String.length hp - i - 1)) with
    | Some port when port > 0 -> Ok (host, port)
    | _ -> Error (Printf.sprintf "bad endpoint %S (want HOST:PORT)" hp))

let sockaddr_of ~socket ~tcp =
  match (socket, tcp) with
  | Some p, None -> Unix.ADDR_UNIX p
  | None, Some hp ->
    let host, port = or_die (parse_tcp hp) in
    let addr =
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found -> Unix.inet_addr_of_string host
    in
    Unix.ADDR_INET (addr, port)
  | _ -> or_die (Error "exactly one of --socket or --tcp is required")

let serve_cmd =
  let batch_max =
    Arg.(
      value & opt int 256
      & info [ "batch-max" ] ~docv:"N"
          ~doc:"Cap on run requests dispatched as one engine fan-out.")
  in
  let max_requests =
    Arg.(
      value & opt (some int) None
      & info [ "max-requests" ] ~docv:"N"
          ~doc:"Drain and exit after answering $(docv) requests (CI smoke \
                mode).")
  in
  let default_deadline_ms =
    Arg.(
      value & opt (some int) None
      & info [ "default-deadline-ms" ] ~docv:"MS"
          ~doc:"Server-side deadline compiled onto every run request that \
                does not carry its own deadline_ms (default: none).")
  in
  let idle_timeout =
    Arg.(
      value & opt float 300.
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:"Close connections idle for $(docv) seconds.")
  in
  let slow_timeout =
    Arg.(
      value & opt float 10.
      & info [ "slow-timeout" ] ~docv:"SECONDS"
          ~doc:"Close connections whose request line fails to complete \
                within $(docv) seconds (slowloris defence).")
  in
  let max_pending =
    Arg.(
      value & opt int 512
      & info [ "max-pending" ] ~docv:"N"
          ~doc:"Per-connection backlog cap: complete request lines beyond \
                $(docv) are answered with structured overloaded errors.")
  in
  let max_out =
    Arg.(
      value & opt int (8 lsl 20)
      & info [ "max-out" ] ~docv:"BYTES"
          ~doc:"Close a connection whose unread response backlog exceeds \
                $(docv) bytes (slow-reader defence).")
  in
  let drain_grace =
    Arg.(
      value & opt float 5.
      & info [ "drain-grace" ] ~docv:"SECONDS"
          ~doc:"Bound on the graceful drain after shutdown/--max-requests.")
  in
  let run socket tcp jobs cache batch_max max_requests default_deadline_ms
      idle_timeout slow_timeout max_pending max_out drain_grace trace metrics =
    setup_logs ();
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let listen =
      match (socket, tcp) with
      | Some p, None -> (
        try S.Server.listen_unix p
        with Failure msg -> or_die (Error msg))
      | None, Some hp ->
        let host, port = or_die (parse_tcp hp) in
        S.Server.listen_tcp ~host ~port
      | _ -> or_die (Error "exactly one of --socket or --tcp is required")
    in
    with_engine ?cache_dir:cache ~jobs (fun ~cache:_ engine ->
        let dispatch = S.Dispatch.create ?default_deadline_ms engine in
        let server =
          S.Server.create ~batch_max ?max_requests
            ~idle_timeout_s:idle_timeout ~slow_timeout_s:slow_timeout
            ~max_pending ~max_out ~drain_grace_s:drain_grace ~dispatch listen
        in
        Printf.eprintf "serve: listening (%d worker%s)\n%!" jobs
          (if jobs = 1 then "" else "s");
        with_obs ~trace ~metrics "serve" (fun obs ->
            S.Server.run ~obs server);
        Printf.eprintf "serve: answered %d requests (%d errors, %d shed)\n%!"
          (S.Dispatch.served dispatch)
          (S.Dispatch.errors dispatch)
          (S.Dispatch.shed dispatch));
    (* The daemon owns its socket file; leave no stale one behind. *)
    Option.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      socket
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the scheduling daemon: accept JSONL explore/schedule \
          requests over a Unix or TCP socket, batch concurrent requests \
          onto one shared worker pool and one warm persistent cache, and \
          answer each with a structured (byte-deterministic) response \
          line.  Overload protection: per-request deadlines, bounded \
          backlogs with deterministic shedding, idle/slowloris timeouts \
          and graceful drain.")
    Term.(
      const run $ socket_arg $ tcp_arg $ jobs () $ cache $ batch_max
      $ max_requests $ default_deadline_ms $ idle_timeout $ slow_timeout
      $ max_pending $ max_out $ drain_grace $ trace $ metrics)

let loadgen_cmd =
  let requests =
    Arg.(
      value & opt int 50
      & info [ "requests" ] ~docv:"N" ~doc:"Requests to issue.")
  in
  let concurrency =
    Arg.(
      value & opt int 4
      & info [ "concurrency" ] ~docv:"K"
          ~doc:"Concurrent client connections (round-robin request split).")
  in
  let mix =
    Arg.(
      value
      & opt (enum [ ("clean", S.Load.Clean); ("full", S.Load.Full) ])
          S.Load.Full
      & info [ "mix" ] ~docv:"MIX"
          ~doc:"Request mix: $(b,clean) (well-formed only) or $(b,full) \
                (adds malformed and strict-budget requests).")
  in
  let transcript =
    Arg.(
      value & opt (some string) None
      & info [ "transcript" ] ~docv:"FILE"
          ~doc:"Write one \"INDEX\\tRESPONSE\" line per request, sorted by \
                issue index — byte-comparable across runs.")
  in
  let json =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the requests/s + latency summary to $(docv) instead \
                of stdout.")
  in
  let shutdown =
    Arg.(
      value & flag
      & info [ "shutdown" ]
          ~doc:"Send a shutdown request to the daemon when done.")
  in
  let deadline_ms =
    Arg.(
      value & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Stamp every generated request with this deadline_ms \
                (0 is the fast-fail probe).")
  in
  let run socket tcp requests concurrency seed n_loops mix transcript json
      shutdown deadline_ms =
    setup_logs ();
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let addr = sockaddr_of ~socket ~tcp in
    let connect () =
      let fd =
        Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0
      in
      (try Unix.connect fd addr
       with Unix.Unix_error (e, _, _) ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         or_die
           (Error
              (Printf.sprintf "cannot connect to the daemon: %s"
                 (Unix.error_message e))));
      fd
    in
    let lines = S.Load.requests ~mix ~n_loops ~seed requests in
    let lines =
      match deadline_ms with
      | None -> lines
      | Some ms -> List.map (S.Load.with_deadline ms) lines
    in
    let numbered = List.mapi (fun i l -> (i, l)) lines in
    let concurrency = max 1 concurrency in
    let chunks =
      List.init concurrency (fun w ->
          List.filter (fun (i, _) -> i mod concurrency = w) numbered)
    in
    (* One connection per worker; requests on a connection are issued
       synchronously so per-request latency is honest.  A connection
       the daemon closed mid-chunk marks its remaining requests as
       transport errors instead of killing the whole run. *)
    let run_chunk chunk =
      if chunk = [] then []
      else begin
        let fd = connect () in
        Fun.protect
          ~finally:(fun () ->
            try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            let ic = Unix.in_channel_of_descr fd in
            let oc = Unix.out_channel_of_descr fd in
            List.map
              (fun (i, line) ->
                let t0 = Unix.gettimeofday () in
                match
                  output_string oc line;
                  output_char oc '\n';
                  flush oc;
                  input_line ic
                with
                | resp ->
                  (Some ((Unix.gettimeofday () -. t0) *. 1e9), (i, Some resp))
                | exception (End_of_file | Sys_error _) -> (None, (i, None)))
              chunk)
      end
    in
    let pool = E.Pool.create ~jobs:concurrency () in
    let t0 = Unix.gettimeofday () in
    let per_chunk =
      Fun.protect
        ~finally:(fun () -> E.Pool.shutdown pool)
        (fun () -> E.Pool.map pool run_chunk chunks)
    in
    let wall_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
    let all = List.concat per_chunk in
    (* Percentiles are computed over successfully answered requests
       only: a shed request or a dead connection is not a latency
       sample. *)
    let latencies_ns =
      List.filter_map
        (fun (lat, (_, resp)) ->
          match (lat, Option.map S.Load.classify resp) with
          | Some ns, Some S.Load.Ok_answer -> Some ns
          | _ -> None)
        all
    in
    let responses =
      List.sort
        (fun (i, _) (j, _) -> compare (i : int) j)
        (List.map snd all)
    in
    let ok, errors, shed, deadline_exceeded, transport =
      List.fold_left
        (fun (ok, err, shed, dl, tr) (_, resp) ->
          match Option.map S.Load.classify resp with
          | Some S.Load.Ok_answer -> (ok + 1, err, shed, dl, tr)
          | Some S.Load.Shed -> (ok, err + 1, shed + 1, dl, tr)
          | Some S.Load.Deadline_exceeded -> (ok, err + 1, shed, dl + 1, tr)
          | Some S.Load.Error_answer -> (ok, err + 1, shed, dl, tr)
          | None -> (ok, err, shed, dl, tr + 1))
        (0, 0, 0, 0, 0) responses
    in
    (match transcript with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      List.iter
        (fun (i, resp) ->
          Printf.fprintf oc "%06d\t%s\n" i
            (Option.value resp ~default:"#transport-error"))
        responses;
      close_out oc);
    if shutdown then begin
      let fd = connect () in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let ic = Unix.in_channel_of_descr fd in
          let oc = Unix.out_channel_of_descr fd in
          output_string oc "{\"id\":\"loadgen-shutdown\",\"op\":\"shutdown\"}\n";
          flush oc;
          ignore (input_line ic))
    end;
    let summary =
      E.Jsonx.to_string
        (S.Load.summary_json ~shed ~deadline_exceeded ~transport ~requests
           ~concurrency ~wall_ns ~ok ~errors ~latencies_ns ())
    in
    match json with
    | None -> print_endline summary
    | Some path ->
      let oc = open_out path in
      output_string oc summary;
      output_char oc '\n';
      close_out oc
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive a running daemon with a deterministic (seeded) request \
          stream over concurrent connections and report requests/s plus \
          p50/p99 latency; with --transcript, responses are written in \
          issue order for byte-comparison across runs.  Shed and \
          deadline-exceeded answers are tallied separately from \
          transport errors, and percentiles cover successfully answered \
          requests only.")
    Term.(
      const run $ socket_arg $ tcp_arg $ requests $ concurrency $ seed
      $ fixed_loops 2 $ mix $ transcript $ json $ shutdown $ deadline_ms)
