(* serve-warm and serve-mixed: the scheduling daemon ([Server] in a
   second domain, over a [Dispatch] with an engine at jobs 1 and an
   on-disk cache) answering two closed-loop client connections from the
   main domain — each connection sends its next request only when the
   previous answer arrived.

   The cache is primed with a pool of 32 distinct [Load.requests
   ~mix:Clean ~n_loops:2] lines drawn from [--seed].

   - serve-warm sends 8,000 x [seconds] requests drawn from that pool
     in a seeded order.  No request schedules anything: the time goes to
     framing, protocol parsing, registry admission, cache lookup and
     decoding, rendering and the reactor, so a scheduler change should
     leave it unchanged.
   - serve-mixed sends 80 x [seconds] requests, one in every 30 (at a
     seeded position) a cache miss and the rest pool hits.  A miss
     computes inline on the single-threaded reactor while the other
     connection's hit waits behind it, so hit tail latency measures
     head-of-line blocking (the interleaved-arrival setting of Mack et
     al., arxiv 2112.08980), and the miss is appended to the cache
     beside the reads.  About one hit in 30 waits out a miss, so the
     hit tail must be p99 to see them: the rate gives the 1,000 hits a
     p99 with ten samples beyond it needs at [--seconds 15].

   Set-up is the daemon's warm start over the primed cache: open the
   cache, start the dispatcher and the server, connect both clients and
   ping each.  It is timed [Workload.setup_reps] times and reported as
   the median.  Priming (computing the pool once) happens before, as a
   fixture; its time is the per-layer [serve.prime_s]. *)

open Hcv_support
open Hcv_workload
open Workload
module E = Hcv_explore
module S = Hcv_serve
module J = E.Jsonx
module Trace = Hcv_obs.Trace

type mode = Warm | Mixed

let pool_size cfg = if cfg.smoke then 4 else 32
let miss_every = 30

(* Requests per run: [seconds] at the nominal rate of each mix. *)
let requests cfg = function
  | Warm -> Workload.ops cfg ~per_second:8000.0 ~smoke:2000
  | Mixed -> Workload.ops cfg ~per_second:80.0 ~smoke:60

(* A stalled daemon fails the run instead of hanging it. *)
let io_timeout_s = 60.0

(* ----- request material ------------------------------------------------ *)

let admit line =
  match S.Proto.parse line with
  | Ok { S.Proto.req = S.Proto.Run work; _ } -> (
    match S.Registry.admit work with Ok task -> Some task | Error _ -> None)
  | Ok _ | Error _ -> None

(* The first [size] request lines of the seeded stream whose content keys
   are distinct (the stream repeats content now and then). *)
let pool ~seed ~size =
  let rec take keys acc = function
    | _ when List.length acc = size -> List.rev acc
    | [] -> failwith "serve: the request stream is too short for the pool"
    | line :: rest -> (
      match admit line with
      | Some task when not (List.mem (S.Registry.key task) keys) ->
        take (S.Registry.key task :: keys) (line :: acc) rest
      | Some _ | None -> take keys acc rest)
  in
  take [] [] (S.Load.requests ~mix:S.Load.Clean ~n_loops:2 ~seed (size * 8))

(* Miss [m]: an explore request no earlier one keyed to — its seed field
   is never the pool's default 42 and no (benchmark, seed) pair repeats.
   The catalogue is the same for every [--seed]: a miss costs 0.02-2.7 s
   depending on its loop population, so misses drawn from the seed would
   turn every serve-mixed number into a lottery over seeds.  The seed
   places the misses and picks the hits. *)
let miss_line m =
  let benches = Array.of_list Specfp.all in
  J.to_string
    (J.Obj
       [
         ("id", J.Str (Printf.sprintf "m%05d" m));
         ("op", J.Str "explore");
         ("bench", J.Str benches.(m mod Array.length benches).Specfp.name);
         ("loops", J.Num 2.0);
         ("seed", J.Num (float_of_int (1000 + (m / Array.length benches))));
       ])

(* ----- client side ---------------------------------------------------- *)

type conn = { fd : Unix.file_descr; buf : Buffer.t }

let chunk = Bytes.create 65536

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  { fd; buf = Buffer.create 4096 }

let send c line =
  let s = line ^ "\n" in
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring c.fd s off (String.length s - off))
  in
  go 0

(* Read what the socket has (blocking until something arrives). *)
let fill c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> failwith "serve: the daemon closed a connection"
  | n -> Buffer.add_subbytes c.buf chunk 0 n

let take_line c =
  let s = Buffer.contents c.buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
    Buffer.clear c.buf;
    Buffer.add_substring c.buf s (i + 1) (String.length s - i - 1);
    Some (String.sub s 0 i)

let wait_readable fds =
  match Unix.select fds [] [] io_timeout_s with
  | [], _, _ -> failwith "serve: the daemon stopped answering"
  | rd, _, _ -> rd

let rec recv_line c =
  match take_line c with
  | Some l -> l
  | None ->
    ignore (wait_readable [ c.fd ]);
    fill c;
    recv_line c

let ask c line =
  send c line;
  recv_line c

let ok_response line =
  match S.Proto.parse_response line with
  | Ok r -> r.S.Proto.ok
  | Error _ -> false

(* ----- the daemon ------------------------------------------------------ *)

type daemon = {
  dispatch : S.Dispatch.t;
  domain : unit Domain.t;
  conns : conn array;
  sock : string;
}

let start ?(obs = Trace.null) ~cache_dir ~sock () =
  let cache = E.Cache.open_dir cache_dir in
  let engine = E.Engine.create ~jobs:1 ~cache () in
  let dispatch = S.Dispatch.create engine in
  let server = S.Server.create ~dispatch (S.Server.listen_unix sock) in
  let domain =
    Domain.spawn (fun () ->
        Trace.span obs "server" (fun sp -> S.Server.run ~obs:sp server))
  in
  let conns = Array.init 2 (fun _ -> connect sock) in
  Array.iteri
    (fun i c ->
      let ping = Printf.sprintf {|{"id":"ping%d","op":"ping"}|} i in
      if not (ok_response (ask c ping)) then failwith "serve: ping failed")
    conns;
  { dispatch; domain; conns; sock }

let stop d =
  ignore (ask d.conns.(0) {|{"id":"bye","op":"shutdown"}|});
  Array.iter (fun c -> Unix.close c.fd) d.conns;
  Domain.join d.domain;
  S.Dispatch.shutdown d.dispatch;
  try Sys.remove d.sock with Sys_error _ -> ()

(* The daemon's cache counters, from its stats op. *)
let cache_stats d =
  let cache =
    let stats = ask d.conns.(0) {|{"id":"stats","op":"stats"}|} in
    match S.Proto.parse_response stats with
    | Ok { S.Proto.result = Some r; _ } -> J.member "cache" r
    | Ok _ | Error _ -> None
  in
  let field name = Option.bind (Option.bind cache (J.member name)) J.int in
  match (field "hits", field "misses") with
  | Some h, Some m -> (h, m)
  | _ -> failwith "serve: stats op returned no cache counters"

(* Compute every pool line once into the on-disk cache; the responses
   are what every later answer to that line must equal byte for byte. *)
let prime ~cache_dir lines =
  let cache = E.Cache.open_dir cache_dir in
  let d = S.Dispatch.create (E.Engine.create ~jobs:1 ~cache ()) in
  Fun.protect
    ~finally:(fun () -> S.Dispatch.shutdown d)
    (fun () -> List.map (S.Dispatch.handle_line d) lines)

(* ----- closed-loop load ----------------------------------------------- *)

type request = {
  line : string;
  expect : string option;  (** a hit's priming response *)
  miss_id : string option;  (** a miss's request id *)
}

(* Client-side latencies (ms) of every answer, and of hits and misses
   apart, plus the count of wrong or failed answers. *)
type load = {
  all : Stats.samples;
  hits : Stats.samples;
  misses : Stats.samples;
  mutable bad : int;
}

let judge r response =
  match (r.expect, r.miss_id) with
  | Some e, _ -> response = e
  | None, Some id -> (
    match S.Proto.parse_response response with
    | Ok { S.Proto.ok = true; rid = Some rid; _ } -> rid = id
    | Ok _ | Error _ -> false)
  | None, None -> false

(* Both connections in flight at once, each sending its next request as
   soon as its previous answer arrived, until the run's requests are
   sent and answered. *)
let closed_loop cfg mode d next =
  let n = Array.length d.conns in
  let inflight = Array.make n None in
  let load =
    {
      all = Stats.samples ();
      hits = Stats.samples ();
      misses = Stats.samples ();
      bad = 0;
    }
  in
  let issued = ref 0 and total = requests cfg mode in
  let t0 = Stats.now_ns () in
  let issue i =
    if !issued < total then begin
      let r = next () in
      incr issued;
      inflight.(i) <- Some (r, Stats.now_ns ());
      send d.conns.(i) r.line
    end
  in
  Array.iteri (fun i _ -> issue i) d.conns;
  let rec answer i =
    match take_line d.conns.(i) with
    | None -> ()
    | Some line ->
      (match inflight.(i) with
      | None -> failwith "serve: an answer nobody asked for"
      | Some (r, ts) ->
        let ms = (Stats.now_ns () -. ts) /. 1e6 in
        Stats.add load.all ms;
        Stats.add (if r.miss_id = None then load.hits else load.misses) ms;
        if not (judge r line) then load.bad <- load.bad + 1;
        inflight.(i) <- None;
        issue i);
      answer i
  in
  while Array.exists Option.is_some inflight do
    let busy =
      List.filter (fun i -> inflight.(i) <> None) (List.init n Fun.id)
    in
    let ready = wait_readable (List.map (fun i -> d.conns.(i).fd) busy) in
    List.iter
      (fun i ->
        if List.mem d.conns.(i).fd ready then begin
          fill d.conns.(i);
          answer i
        end)
      busy
  done;
  (load, Stats.since_s t0)

(* The request stream: seeded hits from the pool and, in serve-mixed, one
   catalogue miss at a seeded position in every block of [miss_every]. *)
let stream cfg mode pool =
  let rng = Rng.create cfg.seed in
  let pool = Array.of_list pool in
  let k = ref 0 and m = ref 0 and miss_at = ref 0 in
  fun () ->
    if !k mod miss_every = 0 then miss_at := Rng.int rng miss_every;
    let is_miss = mode = Mixed && !k mod miss_every = !miss_at in
    incr k;
    if is_miss then begin
      let id = Printf.sprintf "m%05d" !m in
      let line = miss_line !m in
      incr m;
      { line; expect = None; miss_id = Some id }
    end
    else
      let line, resp = pool.(Rng.int rng (Array.length pool)) in
      { line; expect = Some resp; miss_id = None }

(* ----- in-process replay of the hit path (traced pass) ----------------- *)

(* One warm request, step by step, each step timed around the public
   call that does it and in the order [Dispatch.handle_line] makes them:
   parse; admission (Registry.admit plus the two Registry.key calls the
   dispatcher makes per request); the engine sweep, which keys once more,
   looks the key up and decodes the cached outcome (lookup and decode are
   also timed on their own); rendering; and the dispatcher's error and
   deadline tallies, which re-parse every response it sends twice.  Then
   [Dispatch.handle_line] on the same line, the whole the steps must sum
   to, and once more under a collecting span for the trace overhead.
   Step times (ns) accumulate as volatile gauges on [sp].  Returns
   whether every answer equals the priming response. *)
let replay_line ~sp ~cache ~engine ~dispatch (line, resp) =
  let time name f =
    let t0 = Stats.now_ns () in
    let v = f () in
    Trace.vol sp name (Stats.now_ns () -. t0);
    v
  in
  match time "proto.parse" (fun () -> S.Proto.parse line) with
  | Ok { S.Proto.id; req = S.Proto.Run work } ->
    let task =
      time "registry.admit" (fun () ->
          match S.Registry.admit work with
          | Ok t ->
            ignore (S.Registry.key t);
            ignore (S.Registry.key t);
            t
          | Error _ -> failwith "serve: a pool line no longer admits")
    in
    let key = S.Registry.key task in
    let value = time "cache.find" (fun () -> E.Cache.find cache key) in
    let outcome =
      time "codec.decode" (fun () ->
          Option.bind value Hcv_core.Sweep.outcome_of_string)
    in
    let swept =
      time "engine.sweep" (fun () ->
          E.Engine.sweep engine ~codec:S.Registry.codec S.Registry.run [ task ])
    in
    let rendered =
      time "render" (fun () ->
          S.Registry.response_line ~id work (List.hd swept))
    in
    time "dispatch.tally" (fun () ->
        ignore (S.Proto.parse_response rendered);
        ignore (S.Proto.parse_response rendered));
    let handled =
      time "dispatch.handle" (fun () -> S.Dispatch.handle_line dispatch line)
    in
    time "dispatch.handle.traced" (fun () ->
        ignore (S.Dispatch.handle_line dispatch ~obs:sp line));
    outcome <> None && rendered = resp && handled = resp
  | Ok _ | Error _ -> false

(* Replay every pool line [reps] times under a bench ["replay"] span,
   interleaving the steps per line so each pays its share of garbage
   collection as in the real path; returns the per-call means and
   whether every answer was right. *)
let replay_hits ~root ~cache_dir ~reps pool =
  let cache = E.Cache.open_dir cache_dir in
  let engine = E.Engine.create ~jobs:1 ~cache () in
  let dispatch = S.Dispatch.create engine in
  let consistent =
    Fun.protect
      ~finally:(fun () -> S.Dispatch.shutdown dispatch)
      (fun () ->
        Trace.span root "replay" (fun sp ->
            let ok = ref true in
            for _ = 1 to reps do
              List.iter
                (fun item ->
                  if not (replay_line ~sp ~cache ~engine ~dispatch item) then
                    ok := false)
                pool
            done;
            !ok))
  in
  let tree = Option.get (Trace.export root) in
  let replay = List.hd (Tree.children_named "replay" tree) in
  let calls = float_of_int (reps * List.length pool) in
  let us name = List.assoc name replay.Trace.volatile /. 1e3 /. calls in
  let parse = us "proto.parse" and admit_us = us "registry.admit" in
  let find = us "cache.find" and decode = us "codec.decode" in
  let sweep = us "engine.sweep" and render = us "render" in
  let tally = us "dispatch.tally" and handle = us "dispatch.handle" in
  let parts = parse +. admit_us +. sweep +. render +. tally in
  ( [
      ("proto.parse_us", parse);
      ("registry.admit_us", admit_us);
      ("cache.find_us", find);
      ("codec.decode_us", decode);
      ("engine.other_us", sweep -. find -. decode);
      ("render_us", render);
      ("dispatch.tally_us", tally);
      ("dispatch.handle_us", handle);
      ("layers.sum_ratio", ratio parts handle);
      ("trace_overhead_ratio", ratio (us "dispatch.handle.traced") handle);
    ],
    consistent )

(* serve-mixed: recompute the first [n] misses the run sent, and store
   their outcomes into a scratch on-disk cache, each in its own span. *)
let replay_misses ~root ~dir n =
  let cache = E.Cache.open_dir (Filename.concat dir "store") in
  let timed_ms name f =
    let v, dt = Stats.timed (fun () -> Trace.span root name (fun _ -> f ())) in
    (v, dt *. 1e3)
  in
  Fun.protect
    ~finally:(fun () -> E.Cache.close cache)
    (fun () ->
      let runs, stores =
        List.split
          (List.init n (fun m ->
               match admit (miss_line m) with
               | None -> failwith "serve: a miss no longer admits"
               | Some task ->
                 let o, run_ms =
                   timed_ms "registry.run" (fun () -> S.Registry.run task)
                 in
                 let (), store_ms =
                   timed_ms "cache.store" (fun () ->
                       E.Cache.store cache ~key:(S.Registry.key task)
                         (Hcv_core.Sweep.outcome_to_string o))
                 in
                 (run_ms, store_ms)))
      in
      [
        ("registry.run_ms", Stats.mean (Array.of_list runs));
        ("cache.store_ms", Stats.mean (Array.of_list stores));
      ])

(* ----- the workloads ---------------------------------------------------- *)

let run mode cfg =
  Stats.with_scratch_dir (fun dir ->
      let cache_dir = Filename.concat dir "cache" in
      let sock = Filename.concat dir "d.sock" in
      let problems = ref [] in
      let lines = pool ~seed:cfg.seed ~size:(pool_size cfg) in
      let responses, prime_s = Stats.timed (fun () -> prime ~cache_dir lines) in
      List.iter2
        (fun l r ->
          if not (ok_response r) then
            note_problem problems ("priming failed: " ^ l ^ " -> " ^ r))
        lines responses;
      let pool = List.combine lines responses in
      let name =
        match mode with Warm -> "serve-warm" | Mixed -> "serve-mixed"
      in
      let root = Trace.root name in
      let d, setup_s =
        if cfg.trace then (start ~obs:root ~cache_dir ~sock (), nan)
        else
          Workload.setup ~release:stop (start ~cache_dir ~sock)
      in
      let load, wall, (hits, misses) =
        Fun.protect
          ~finally:(fun () -> stop d)
          (fun () ->
            let load, wall = closed_loop cfg mode d (stream cfg mode pool) in
            (load, wall, cache_stats d))
      in
      let latencies = Stats.values load.all in
      let hit_lat = Stats.values load.hits in
      let miss_lat = Stats.values load.misses in
      let n = Array.length latencies and sent_misses = Array.length miss_lat in
      if load.bad > 0 then
        note_problem problems
          (Printf.sprintf "%d wrong or failed answers" load.bad);
      if misses <> sent_misses then
        note_problem problems
          (Printf.sprintf "daemon counted %d cache misses for %d misses sent"
             misses sent_misses);
      let tail = Stats.tail latencies in
      let metrics =
        if not cfg.trace then
          [
            ("setup_s", setup_s);
            ("ops_per_s", float_of_int n /. wall);
            ("op_p50_ms", Stats.median latencies);
            ("op_tail_ms", tail.Stats.value);
          ]
        else begin
          let reps = if cfg.smoke then 5 else 100 in
          let hit_path, consistent = replay_hits ~root ~cache_dir ~reps pool in
          if not consistent then
            note_problem problems "a replayed hit differs from its priming";
          let handle_ms = List.assoc "dispatch.handle_us" hit_path /. 1e3 in
          let miss_path =
            match mode with
            | Mixed -> replay_misses ~root ~dir (min 3 sent_misses)
            | Warm -> []
          in
          (* The daemon's own batches; the replay's go under "replay". *)
          let server =
            List.hd (Tree.children_named "server" (Option.get (Trace.export root)))
          in
          let batches = float_of_int (List.length (Trace.find_all server "batch")) in
          let batched = Trace.counter_total server "serve.requests" in
          let waits = Array.map (fun l -> l -. handle_ms) hit_lat in
          hit_path @ miss_path
          @ [
              ("reactor_us", (Stats.median hit_lat -. handle_ms) *. 1e3);
              ("server.batch_width_mean", ratio (float_of_int batched) batches);
              ( "cache.hit_ratio",
                ratio (float_of_int hits) (float_of_int (hits + misses)) );
              ("serve.hit_tail_ms", (Stats.tail hit_lat).Stats.value);
              ("serve.hit_wait_tail_ms", (Stats.tail waits).Stats.value);
              ( "serve.miss_p50_ms",
                if sent_misses = 0 then 0.0 else Stats.median miss_lat );
              ("serve.prime_s", prime_s);
            ]
        end
      in
      {
        correct = !problems = [];
        attempted = n;
        failed = load.bad;
        metrics;
        notes =
          [
            Printf.sprintf "op_tail_ms is p%g of %d requests (%d misses)"
              tail.Stats.pct n sent_misses;
            Printf.sprintf "pool primed in %.2f s" prime_s;
          ];
        problems = List.rev !problems;
        tree = (if cfg.trace then Trace.export root else None);
      })
