(* The serving plane: framing, wire protocol, content addressing,
   batched dispatch and the socket loop. *)

open Hcv_core
module E = Hcv_explore
module R = Hcv_resilience
module S = Hcv_serve

(* The overload personas keep writing into sockets the server reaps
   mid-test — exactly the point of the test.  Without this the default
   SIGPIPE disposition kills the runner instead of surfacing EPIPE. *)
let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* ----- frame: incremental line framing ----------------------------- *)

let pop_line f =
  match S.Frame.pop f with
  | Some (S.Frame.Line l) -> l
  | Some (S.Frame.Oversized n) -> Alcotest.failf "unexpected oversized %d" n
  | None -> Alcotest.fail "expected a complete line"

let test_frame_torn () =
  let f = S.Frame.create () in
  (* A line delivered one byte at a time must come out whole. *)
  String.iter
    (fun c -> S.Frame.feed f (String.make 1 c))
    "hello\nwor";
  Alcotest.(check string) "first line" "hello" (pop_line f);
  Alcotest.(check bool) "second torn" true (S.Frame.pop f = None);
  Alcotest.(check int) "torn bytes buffered" 3 (S.Frame.pending f);
  S.Frame.feed f "ld\r\n";
  Alcotest.(check string) "second line, CR stripped" "world" (pop_line f);
  (* Several lines in one read. *)
  S.Frame.feed f "a\nb\n\nc";
  Alcotest.(check string) "a" "a" (pop_line f);
  Alcotest.(check string) "b" "b" (pop_line f);
  Alcotest.(check string) "empty line" "" (pop_line f);
  Alcotest.(check bool) "c torn" true (S.Frame.pop f = None)

let test_frame_oversized () =
  let f = S.Frame.create ~max_line:8 () in
  S.Frame.feed f (String.make 20 'x');
  Alcotest.(check bool) "no newline yet" true (S.Frame.pop f = None);
  S.Frame.feed f "yyyy\nok\n";
  (match S.Frame.pop f with
  | Some (S.Frame.Oversized n) ->
    Alcotest.(check int) "total length counted" 24 n
  | _ -> Alcotest.fail "expected Oversized");
  (* The frame recovers: the next line is intact. *)
  Alcotest.(check string) "next line survives" "ok" (pop_line f)

let test_frame_drop_partial () =
  let f = S.Frame.create () in
  (* Byte-at-a-time delivery across both line boundaries, popping as
     lines complete: framing state survives any tear position. *)
  let got = ref [] in
  String.iter
    (fun c ->
      S.Frame.feed f (String.make 1 c);
      match S.Frame.pop f with
      | Some (S.Frame.Line l) -> got := l :: !got
      | Some (S.Frame.Oversized n) -> Alcotest.failf "oversized %d" n
      | None -> ())
    "one\ntwo\nthr";
  Alcotest.(check (list string)) "lines out of 1-byte feeds"
    [ "one"; "two" ] (List.rev !got);
  (* Mid-frame disconnect: the torn tail is dropped, and the frame is
     clean for reuse. *)
  Alcotest.(check int) "torn bytes reported" 3 (S.Frame.drop_partial f);
  Alcotest.(check int) "nothing pending" 0 (S.Frame.pending f);
  S.Frame.feed f "ok\n";
  Alcotest.(check string) "fresh line after the drop" "ok" (pop_line f);
  (* Dropping also abandons an oversized line in progress. *)
  let g = S.Frame.create ~max_line:4 () in
  S.Frame.feed g (String.make 10 'x');
  Alcotest.(check bool) "discarding, nothing complete" true
    (S.Frame.pop g = None);
  ignore (S.Frame.drop_partial g);
  S.Frame.feed g "ok\n";
  Alcotest.(check string) "recovered from discarding state" "ok" (pop_line g)

(* ----- proto: request parsing and response rendering --------------- *)

let parse_ok line =
  match S.Proto.parse line with
  | Ok e -> e
  | Error (_, d) ->
    Alcotest.failf "unexpected parse error: %s" (Hcv_obs.Diag.to_string d)

let parse_err line =
  match S.Proto.parse line with
  | Ok _ -> Alcotest.failf "accepted malformed request %S" line
  | Error (id, d) -> (id, Hcv_obs.Diag.code d)

let test_proto_parse () =
  let e = parse_ok {|{"id":"a","op":"ping"}|} in
  Alcotest.(check string) "id" "a" e.S.Proto.id;
  Alcotest.(check string) "op" "ping" (S.Proto.op_name e.S.Proto.req);
  let e =
    parse_ok
      {|{"id":"b","op":"explore","bench":"applu","buses":2,"grid_steps":8,"budget":100,"degrade":true}|}
  in
  (match e.S.Proto.req with
  | S.Proto.Run w ->
    Alcotest.(check string) "bench name" "applu" w.S.Proto.name;
    Alcotest.(check int) "buses" 2 w.S.Proto.spec.S.Proto.buses;
    Alcotest.(check (option int)) "grid" (Some 8)
      w.S.Proto.spec.S.Proto.grid_steps;
    Alcotest.(check (option int)) "budget" (Some 100) w.S.Proto.budget;
    Alcotest.(check bool) "degrade" true w.S.Proto.degrade
  | _ -> Alcotest.fail "expected Run");
  (* Shape errors: code + preserved id where extractable. *)
  Alcotest.(check (pair (option string) string))
    "not json" (None, "bad-json")
    (parse_err "this is not json");
  Alcotest.(check (pair (option string) string))
    "torn object" (None, "bad-json")
    (parse_err {|{"id":|});
  Alcotest.(check (pair (option string) string))
    "missing id" (None, "bad-request")
    (parse_err {|{"op":"ping"}|});
  Alcotest.(check (pair (option string) string))
    "unknown op"
    (Some "x", "unknown-op")
    (parse_err {|{"id":"x","op":"frobnicate"}|});
  Alcotest.(check (pair (option string) string))
    "explore without bench"
    (Some "x", "bad-request")
    (parse_err {|{"id":"x","op":"explore"}|});
  Alcotest.(check (pair (option string) string))
    "schedule with both payloads"
    (Some "x", "bad-request")
    (parse_err {|{"id":"x","op":"schedule","dsl":"","graph":{}}|});
  Alcotest.(check (pair (option string) string))
    "bad budget"
    (Some "x", "bad-request")
    (parse_err {|{"id":"x","op":"explore","bench":"applu","budget":0}|});
  (* Sizes are bounded on the wire: each loop is allocated and each
     grid step scored, so neither may be asked for without limit. *)
  Alcotest.(check (pair (option string) string))
    "loops above 64"
    (Some "x", "bad-request")
    (parse_err {|{"id":"x","op":"explore","bench":"applu","loops":65}|});
  Alcotest.(check (pair (option string) string))
    "grid_steps above 64"
    (Some "x", "bad-request")
    (parse_err {|{"id":"x","op":"explore","bench":"applu","grid_steps":65}|});
  Alcotest.(check (pair (option string) string))
    "buses above 8"
    (Some "x", "bad-request")
    (parse_err {|{"id":"x","op":"explore","bench":"applu","buses":9}|});
  let e =
    parse_ok
      {|{"id":"b","op":"explore","bench":"applu","loops":64,"grid_steps":64}|}
  in
  match e.S.Proto.req with
  | S.Proto.Run w ->
    Alcotest.(check (option int)) "64 grid steps accepted" (Some 64)
      w.S.Proto.spec.S.Proto.grid_steps
  | _ -> Alcotest.fail "expected Run"

(* A seed that is present must be an exact integer: a string, a
   fraction or a literal past 2^53 (which a float may have rounded) is
   refused by name instead of running some other seed. *)
let test_proto_seed () =
  let refused line =
    match S.Proto.parse line with
    | Ok _ -> Alcotest.failf "accepted %S" line
    | Error (id, d) ->
      Alcotest.(check (pair (option string) string))
        line (Some "a", "bad-request")
        (id, Hcv_obs.Diag.code d);
      Alcotest.(check string) (line ^ ": names the field")
        {|field "seed" must be an integer|} (Hcv_obs.Diag.message d)
  in
  refused {|{"id":"a","op":"explore","bench":"wupwise","seed":"7"}|};
  refused {|{"id":"a","op":"explore","bench":"wupwise","seed":1.5}|};
  refused {|{"id":"a","op":"explore","bench":"wupwise","seed":18014398509481985}|};
  refused {|{"id":"a","op":"frontier","bench":"wupwise","seed":null}|};
  let seed_of line =
    match (parse_ok line).S.Proto.req with
    | S.Proto.Run { S.Proto.source = S.Proto.Bench { seed; _ }; _ } -> seed
    | _ -> Alcotest.fail "expected a bench run"
  in
  Alcotest.(check int) "absent seed defaults" 42
    (seed_of {|{"id":"a","op":"explore","bench":"wupwise"}|});
  Alcotest.(check int) "largest exact seed" 9007199254740991
    (seed_of {|{"id":"a","op":"explore","bench":"wupwise","seed":9007199254740991}|});
  Alcotest.(check int) "negative seed" (-3)
    (seed_of {|{"id":"a","op":"explore","bench":"wupwise","seed":-3}|})

let test_proto_machine () =
  (* Absent field: the paper machine. *)
  let machine_of line =
    match (parse_ok line).S.Proto.req with
    | S.Proto.Run w -> w.S.Proto.spec.S.Proto.machine
    | _ -> Alcotest.fail "expected Run"
  in
  (match machine_of {|{"id":"a","op":"explore","bench":"applu"}|} with
  | S.Proto.Default -> ()
  | _ -> Alcotest.fail "absent machine must be Default");
  (* A family by name. *)
  (match
     machine_of {|{"id":"a","op":"explore","bench":"applu","machine":"fp-heavy"}|}
   with
  | S.Proto.Family f -> Alcotest.(check string) "family" "fp-heavy" f
  | _ -> Alcotest.fail "expected Family");
  (* An inline description, canonicalised: the same machine with keys
     in a different order and defaults elided parses to the same
     [Desc]. *)
  let desc json =
    match
      machine_of
        (Printf.sprintf
           {|{"id":"a","op":"explore","bench":"applu","machine":%s}|} json)
    with
    | S.Proto.Desc d -> d
    | _ -> Alcotest.fail "expected Desc"
  in
  Alcotest.(check string) "descriptions canonicalised"
    (desc {|{"name":"m","clusters":[{"int":1,"fp":0,"mem":1}]}|})
    (desc
       {|{"clusters":[{"mem":1,"fp":0,"int":1,"regs":16}],"name":"m","icn":{"buses":1,"latency":1}}|});
  (* Unknown family names and malformed descriptions are structured
     errors with the id preserved. *)
  Alcotest.(check (pair (option string) string))
    "unknown family"
    (Some "x", "bad-request")
    (parse_err {|{"id":"x","op":"explore","bench":"applu","machine":"huge"}|});
  Alcotest.(check (pair (option string) string))
    "malformed description"
    (Some "x", "bad-request")
    (parse_err {|{"id":"x","op":"explore","bench":"applu","machine":{}}|});
  Alcotest.(check (pair (option string) string))
    "wrong type"
    (Some "x", "bad-request")
    (parse_err {|{"id":"x","op":"explore","bench":"applu","machine":7}|});
  Alcotest.(check (pair (option string) string))
    "description grid above 64 steps"
    (Some "x", "bad-request")
    (parse_err
       {|{"id":"x","op":"explore","bench":"applu","machine":{"clusters":[{"int":1,"fp":1,"mem":1}],"grid":{"kind":"uniform","steps":65,"top":"20/9"}}}|})

(* Every boundary refuses a key it does not declare, a key bound twice
   and a value of the wrong type, naming the value by its JSON path:
   none of these lines is answered, or run, as if the field were absent
   or took its default. *)
let test_boundary_refusals () =
  let swim rest = {|"bench":"swim","loops":1,|} ^ rest in
  let dsl = {|"dsl":"loop x\n node a ld.f\nend\n"|} in
  let cases =
    [
      ("b", "explore", swim {|"bus":2|}, "bad-request", "bus");
      ("d", "explore", swim {|"budget":1,"degrade":"yes"|}, "bad-request", "degrade");
      ("f", "explore", swim {|"buses":2,"buses":1|}, "bad-request", "buses");
      ("k", "explore", swim {|"seed":7,"seed":8|}, "bad-request", "seed");
      ("g", "ping", {|"bench":"swim"|}, "bad-request", "bench");
      ("h", "explore", swim {|"objectives":["time"]|}, "bad-request", "objectives");
      ( "i",
        "explore",
        swim {|"machine":{"clusters":[{"int":1,"fp":1,"mem":1,"speed":3}]}|},
        "bad-request",
        "machine.clusters[0].speed" );
      ( "j",
        "schedule",
        {|"graph":{"name":"g","trip":8,"nodes":[{"n":"a","op":"ld.f","lat":3}],"edges":[]}|},
        "bad-graph",
        "graph.nodes[0].lat" );
      ("n", "schedule", {|"name":5,|} ^ dsl, "bad-request", "name");
      ("o", "frontier", swim {|"objectives":null|}, "bad-request", "objectives");
      ("s", "schedule", dsl ^ {|,"loops":3|}, "bad-request", "loops");
      (* The same refusals one level down or more. *)
      ( "c",
        "explore",
        swim {|"machine":{"clusters":[{"int":1,"int":2,"fp":1,"mem":1}]}|},
        "bad-request",
        "machine.clusters[0].int" );
      ( "e",
        "schedule",
        {|"graph":{"name":"g","nodes":[{"n":"a","op":"ld.f"},{"n":"b","op":"add.f"}],"edges":[{"s":"a","d":"b","weight":2}]}|},
        "bad-graph",
        "graph.edges[0].weight" );
      ("p", "frontier", swim {|"caps":[["energy","2"]]|}, "bad-request", "caps[0][1]");
    ]
  in
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun (id, op, rest, code, path) ->
      let line = Printf.sprintf {|{"id":"%s","op":"%s",%s}|} id op rest in
      let echoed, d =
        match S.Proto.parse line with
        | Error (echoed, d) -> (echoed, d)
        | Ok { S.Proto.req = S.Proto.Run w; _ } -> (
          match S.Registry.admit w with
          | Error d -> (Some id, d)
          | Ok _ -> Alcotest.failf "admitted %s" line)
        | Ok _ -> Alcotest.failf "accepted %s" line
      in
      Alcotest.(check (pair (option string) string))
        (line ^ ": id echoed, code") (Some id, code)
        (echoed, Hcv_obs.Diag.code d);
      let msg = Hcv_obs.Diag.message d in
      if not (contains msg (Printf.sprintf "%S" path)) then
        Alcotest.failf "%s: %S does not name %S" line msg path)
    cases;
  (* The envelope is every op's: a ping may carry a deadline. *)
  ignore (parse_ok {|{"id":"q","op":"ping","deadline_ms":5}|})

let test_proto_responses () =
  let ok = S.Proto.ok_line ~id:"a" ~op:"ping" () in
  (match S.Proto.parse_response ok with
  | Ok r ->
    Alcotest.(check (option string)) "rid" (Some "a") r.S.Proto.rid;
    Alcotest.(check bool) "ok" true r.S.Proto.ok;
    Alcotest.(check (option string)) "op" (Some "ping") r.S.Proto.op
  | Error m -> Alcotest.failf "response did not parse: %s" m);
  let d =
    Hcv_obs.Diag.v ~stage:"serve" ~code:"bad-dsl"
      ~context:[ ("line", "3") ]
      "unexpected token"
  in
  (match S.Proto.parse_response (S.Proto.error_line ~id:(Some "z") d) with
  | Ok r ->
    Alcotest.(check bool) "not ok" false r.S.Proto.ok;
    (match r.S.Proto.error with
    | Some d' ->
      Alcotest.(check string) "code survives" "bad-dsl" (Hcv_obs.Diag.code d')
    | None -> Alcotest.fail "error object missing")
  | Error m -> Alcotest.failf "error line did not parse: %s" m);
  (match S.Proto.parse_response (S.Proto.error_line ~id:None d) with
  | Ok r -> Alcotest.(check (option string)) "null id" None r.S.Proto.rid
  | Error m -> Alcotest.failf "null-id line did not parse: %s" m)

(* ----- registry: admission and content keys ------------------------ *)

let work_of line =
  match (parse_ok line).S.Proto.req with
  | S.Proto.Run w -> w
  | _ -> Alcotest.fail "expected a run request"

let admit_ok line =
  match S.Registry.admit (work_of line) with
  | Ok t -> t
  | Error d -> Alcotest.failf "admit failed: %s" (Hcv_obs.Diag.to_string d)

let admit_err line =
  match S.Registry.admit (work_of line) with
  | Ok _ -> Alcotest.failf "admitted invalid work %S" line
  | Error d -> Hcv_obs.Diag.code d

let test_registry_keys () =
  (* An unbudgeted explore request shares the exploration sweeps'
     cache: its key IS the sweep cell key. *)
  let t =
    admit_ok {|{"id":"a","op":"explore","bench":"applu","loops":2,"seed":7}|}
  in
  let cell = Sweep.cell ~buses:1 ~n_loops:2 ~seed:7 "applu" in
  Alcotest.(check string)
    "unbudgeted bench key = sweep cell key" (Sweep.cell_key cell)
    (S.Registry.key t);
  (* A budget changes the result, so it must change the key. *)
  let tb =
    admit_ok
      {|{"id":"a","op":"explore","bench":"applu","loops":2,"seed":7,"budget":5}|}
  in
  Alcotest.(check bool) "budget forks the key" true
    (S.Registry.key tb <> S.Registry.key t);
  (* Payload keys are content keys: formatting must not matter. *)
  let dsl_a = "loop l trip 8\n node a add.i\n node b mul.i\n edge a b\nend\n" in
  let dsl_b =
    "loop l  trip 8\n\n  node a add.i\n  node b mul.i\n  edge a b\nend\n"
  in
  let key_of dsl =
    S.Registry.key
      (admit_ok
         (E.Jsonx.to_string
            (E.Jsonx.Obj
               [
                 ("id", E.Jsonx.Str "p");
                 ("op", E.Jsonx.Str "schedule");
                 ("dsl", E.Jsonx.Str dsl);
               ])))
  in
  Alcotest.(check string) "formatting-independent payload key" (key_of dsl_a)
    (key_of dsl_b);
  (* And a payload key never collides with a bench key's space. *)
  Alcotest.(check bool) "payload key differs" true
    (key_of dsl_a <> S.Registry.key t)

(* The frontier op: parsing, spec extraction, and warm-cache key
   sharing with the CLI's frontier sweep cells. *)
let test_frontier_op () =
  let line =
    {|{"id":"f","op":"frontier","bench":"applu","loops":2,"seed":7,"objectives":["time","energy"],"caps":[["energy",2.5]]}|}
  in
  let e = parse_ok line in
  Alcotest.(check string) "op name" "frontier" (S.Proto.op_name e.S.Proto.req);
  let w = work_of line in
  let spec =
    Frontier.spec
      ~objectives:[ Frontier.Time; Frontier.Energy ]
      ~caps:[ { Frontier.cap = Frontier.Energy; bound = 2.5 } ]
      ()
  in
  (match w.S.Proto.frontier with
  | None -> Alcotest.fail "frontier request carries no spec"
  | Some s ->
    Alcotest.(check string) "spec parsed" (Frontier.spec_key spec)
      (Frontier.spec_key s));
  (* An unbudgeted frontier request keys exactly as the CLI's frontier
     sweep cell: the daemon shares the warm cache. *)
  let t = admit_ok line in
  let cell =
    Sweep.cell ~buses:1 ~n_loops:2 ~seed:7 ~frontier:spec "applu"
  in
  Alcotest.(check string) "key = frontier sweep cell key"
    (Sweep.cell_key cell) (S.Registry.key t);
  (* Defaulted spec: plain-looking request, but still a frontier cell,
     so it must never collide with the plain explore cell. *)
  let t_def =
    admit_ok {|{"id":"f","op":"frontier","bench":"applu","loops":2,"seed":7}|}
  in
  let t_explore =
    admit_ok {|{"id":"f","op":"explore","bench":"applu","loops":2,"seed":7}|}
  in
  Alcotest.(check bool) "frontier cell forks the key" true
    (S.Registry.key t_def <> S.Registry.key t_explore);
  (* Malformed specs are structured parse errors, id preserved. *)
  Alcotest.(check (pair (option string) string))
    "frontier without bench"
    (Some "x", "bad-request")
    (parse_err {|{"id":"x","op":"frontier"}|});
  Alcotest.(check (pair (option string) string))
    "unknown objective"
    (Some "x", "bad-request")
    (parse_err
       {|{"id":"x","op":"frontier","bench":"applu","objectives":["frob"]}|});
  Alcotest.(check (pair (option string) string))
    "bad cap bound"
    (Some "x", "bad-request")
    (parse_err
       {|{"id":"x","op":"frontier","bench":"applu","caps":[["energy",-1]]}|})

let test_registry_rejections () =
  Alcotest.(check string) "unknown benchmark" "unknown-benchmark"
    (admit_err {|{"id":"a","op":"explore","bench":"nosuchbench"}|});
  Alcotest.(check string) "bad dsl" "bad-dsl"
    (admit_err
       {|{"id":"a","op":"schedule","dsl":"loop x trip 4\n node a frob\nend\n"}|});
  Alcotest.(check string) "empty dsl" "bad-request"
    (admit_err {|{"id":"a","op":"schedule","dsl":""}|});
  Alcotest.(check string) "graph with unknown op" "bad-graph"
    (admit_err
       {|{"id":"a","op":"schedule","graph":{"name":"g","trip":8,"nodes":[{"n":"a","op":"frob"}],"edges":[]}}|})

(* A JSON DDG field present with the wrong type, or a negative edge
   distance or latency in either payload form, is refused by name. *)
let test_registry_bad_edge_fields () =
  let diag line =
    match S.Registry.admit (work_of line) with
    | Ok _ -> Alcotest.failf "admitted invalid work %S" line
    | Error d -> d
  in
  let graph ?(loop = "") edge =
    Printf.sprintf
      {|{"id":"g","op":"schedule","graph":{"name":"g"%s,"nodes":[{"n":"a","op":"ld.f"},{"n":"b","op":"add.f"}],"edges":[{"s":"a","d":"b"%s}]}}|}
      loop edge
  in
  let check_field what line field =
    let d = diag line in
    Alcotest.(check string) (what ^ ": code") "bad-graph" (Hcv_obs.Diag.code d);
    Alcotest.(check (option string)) (what ^ ": names the field") (Some field)
      (List.assoc_opt "field" d.Hcv_obs.Diag.context)
  in
  let d =
    diag
      {|{"id":"b","op":"schedule","dsl":"loop acc\n node a ld.f\n node b add.f\n edge a b dist -1\nend\n"}|}
  in
  Alcotest.(check string) "dsl negative dist" "bad-dsl" (Hcv_obs.Diag.code d);
  Alcotest.(check (option string)) "at the edge's line" (Some "4")
    (List.assoc_opt "line" d.Hcv_obs.Diag.context);
  (* A value past Dsl.max_edge_value, which used to wrap the
     schedulers' integer arithmetic, is refused the same way. *)
  let d =
    diag
      {|{"id":"b","op":"schedule","dsl":"loop acc trip 100\n node a ld.f\n node b add.f\n node c add.f\n edge a b lat 4611686018427387000\n edge b c\n edge c b dist 1\nend\n"}|}
  in
  Alcotest.(check string) "dsl huge lat" "bad-dsl" (Hcv_obs.Diag.code d);
  Alcotest.(check (option string)) "at its line" (Some "5")
    (List.assoc_opt "line" d.Hcv_obs.Diag.context);
  Alcotest.(check string) "graph huge lat" "bad-graph"
    (admit_err (graph {|,"lat":4611686018427387000|}));
  Alcotest.(check string) "graph negative dist" "bad-graph"
    (admit_err (graph {|,"dist":-1|}));
  Alcotest.(check string) "graph negative lat" "bad-graph"
    (admit_err (graph {|,"lat":-5|}));
  check_field "string dist" (graph {|,"dist":"2"|}) "dist";
  check_field "fractional lat" (graph {|,"lat":1.5|}) "lat";
  check_field "numeric kind" (graph {|,"kind":3|}) "kind";
  check_field "kind not a token" (graph {|,"kind":"flow #"|}) "kind";
  check_field "string trip" (graph ~loop:{|,"trip":"64"|} "") "trip";
  check_field "trip past 2^53" (graph ~loop:{|,"trip":9007199254740993|} "")
    "trip";
  check_field "string weight" (graph ~loop:{|,"weight":"1"|} "") "weight";
  check_field "numeric name"
    {|{"id":"g","op":"schedule","graph":{"name":5,"nodes":[{"n":"a","op":"ld.f"}]}}|}
    "name";
  check_field "edges not a list"
    {|{"id":"g","op":"schedule","graph":{"name":"g","nodes":[{"n":"a","op":"ld.f"}],"edges":{}}}|}
    "edges";
  (* The well-typed spelling of the same graph still admits. *)
  ignore
    (admit_ok
       (graph ~loop:{|,"trip":64,"weight":1|}
          {|,"dist":2,"lat":1,"kind":"flow"|}))

(* ----- deadlines: wire field compiled onto the budget machinery ----- *)

let test_deadline_compile_registry () =
  (* The wire field parses, rejects negatives, and compiles onto the
     budget with a deterministic points-per-ms constant. *)
  let w =
    work_of {|{"id":"a","op":"explore","bench":"applu","deadline_ms":5}|}
  in
  Alcotest.(check (option int)) "deadline parsed" (Some 5) w.S.Proto.deadline_ms;
  Alcotest.(check (pair (option string) string))
    "negative deadline rejected"
    (Some "x", "bad-request")
    (parse_err {|{"id":"x","op":"explore","bench":"applu","deadline_ms":-1}|});
  Alcotest.(check (option int)) "deadline-only effective budget"
    (Some (Sweep.budget_of_deadline 5))
    (S.Registry.effective_budget w);
  (* Deadline 0 is the fast-fail probe: the floor of one point, never
     zero. *)
  Alcotest.(check int) "deadline 0 floors at one point" 1
    (Sweep.budget_of_deadline 0);
  (* With both present the tighter bound wins. *)
  let both b d =
    S.Registry.effective_budget
      (work_of
         (Printf.sprintf
            {|{"id":"a","op":"explore","bench":"applu","budget":%d,"deadline_ms":%d}|}
            b d))
  in
  Alcotest.(check (option int)) "tight budget binds" (Some 3) (both 3 5);
  Alcotest.(check (option int)) "tight deadline binds"
    (Some (Sweep.budget_of_deadline 1))
    (both 1_000_000 1);
  (* A deadline forks the content key exactly as the equivalent budget
     would — the two spellings of the same work cap share a key. *)
  let key line = S.Registry.key (admit_ok line) in
  Alcotest.(check bool) "deadline forks the unbudgeted key" true
    (key {|{"id":"a","op":"explore","bench":"applu","deadline_ms":1}|}
    <> key {|{"id":"a","op":"explore","bench":"applu"}|});
  Alcotest.(check string) "deadline keys as its compiled budget"
    (key
       (Printf.sprintf
          {|{"id":"a","op":"explore","bench":"applu","budget":%d}|}
          (Sweep.budget_of_deadline 1)))
    (key {|{"id":"a","op":"explore","bench":"applu","deadline_ms":1}|})

(* ----- dispatch: batching, determinism, error isolation ------------ *)

let dsl_line ?(id = "d1") ?budget ?deadline_ms ?degrade () =
  E.Jsonx.to_string
    (E.Jsonx.Obj
       ([
          ("id", E.Jsonx.Str id);
          ("op", E.Jsonx.Str "schedule");
          ( "dsl",
            E.Jsonx.Str
              "loop tiny trip 8\n\
              \ node a ld.f\n\
              \ node b mul.f\n\
              \ node c add.f\n\
              \ edge a b\n\
              \ edge b c\n\
              \ edge c c dist 1\n\
               end\n" );
        ]
       @ (match budget with
         | None -> []
         | Some b -> [ ("budget", E.Jsonx.Num (float_of_int b)) ])
       @ (match deadline_ms with
         | None -> []
         | Some d -> [ ("deadline_ms", E.Jsonx.Num (float_of_int d)) ])
       @
       match degrade with
       | None -> []
       | Some d -> [ ("degrade", E.Jsonx.Bool d) ]))

let with_dispatch ?cache ~jobs f =
  let cache = Option.map (E.Cache.open_dir ?warn:None) cache in
  let engine = E.Engine.create ~jobs ?cache () in
  Fun.protect
    ~finally:(fun () -> E.Engine.shutdown engine)
    (fun () -> f (S.Dispatch.create engine))

let rec rm_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_tree (Filename.concat path f)) (Sys.readdir path);
    (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

let with_temp_dir tag f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hcvliw-test-%s-%d" tag (Unix.getpid ()))
  in
  rm_tree dir;
  Fun.protect ~finally:(fun () -> rm_tree dir) (fun () -> f dir)

let error_code_of line =
  match S.Proto.parse_response line with
  | Ok { S.Proto.ok = false; error = Some e; _ } -> Hcv_obs.Diag.code e
  | Ok _ -> Alcotest.failf "expected an error response, got %S" line
  | Error m -> Alcotest.failf "unparseable response: %s" m

let test_deadline_render () =
  with_dispatch ~jobs:1 (fun d ->
      (* An impossible deadline answers deadline-exceeded, not
         budget-exhausted: the client asked in time units and the error
         must speak them. *)
      let resp = S.Dispatch.handle_line d (dsl_line ~deadline_ms:0 ()) in
      Alcotest.(check string) "deadline-exceeded" "deadline-exceeded"
        (error_code_of resp);
      (match S.Proto.parse_response resp with
      | Ok { S.Proto.error = Some e; _ } ->
        Alcotest.(check (option string)) "context names the deadline"
          (Some "0")
          (List.assoc_opt "deadline_ms" e.Hcv_obs.Diag.context)
      | _ -> Alcotest.fail "error object missing");
      (* Binding rules: whichever bound is tighter names the error. *)
      Alcotest.(check string) "tight budget still budget-exhausted"
        "budget-exhausted"
        (error_code_of
           (S.Dispatch.handle_line d (dsl_line ~budget:1 ~deadline_ms:60000 ())));
      Alcotest.(check string) "tight deadline wins the rendering"
        "deadline-exceeded"
        (error_code_of
           (S.Dispatch.handle_line d
              (dsl_line ~budget:1000000 ~deadline_ms:0 ())));
      (* degrade:true turns the missed deadline into the estimate. *)
      match
        S.Proto.parse_response
          (S.Dispatch.handle_line d (dsl_line ~deadline_ms:0 ~degrade:true ()))
      with
      | Ok { S.Proto.ok = true; result = Some _; _ } -> ()
      | _ -> Alcotest.fail "degrade:true must answer the estimate");
  (* A server-side default deadline fills in only where the request
     carries none. *)
  let engine = E.Engine.create ~jobs:1 () in
  Fun.protect
    ~finally:(fun () -> E.Engine.shutdown engine)
    (fun () ->
      let d = S.Dispatch.create ~default_deadline_ms:0 engine in
      Alcotest.(check string) "default deadline applies" "deadline-exceeded"
        (error_code_of (S.Dispatch.handle_line d (dsl_line ())));
      match
        S.Proto.parse_response
          (S.Dispatch.handle_line d (dsl_line ~deadline_ms:60000 ()))
      with
      | Ok { S.Proto.ok = true; _ } -> ()
      | _ -> Alcotest.fail "explicit deadline must override the default")

let test_dispatch_deterministic () =
  let lines =
    [
      {|{"id":"p","op":"ping"}|};
      dsl_line ~id:"s1" ();
      "not json at all";
      dsl_line ~id:"s2" ();
      (* duplicate content, distinct id: must be computed once but
         answered twice, each under its own id *)
    ]
  in
  with_temp_dir "serve" (fun dir ->
      let answer ?cache ~jobs () =
        with_dispatch ?cache ~jobs (fun d ->
            List.map (S.Dispatch.handle_line d) lines)
      in
      let serial = answer ~jobs:1 () in
      let parallel_cold = answer ~cache:dir ~jobs:2 () in
      let warm = answer ~cache:dir ~jobs:2 () in
      (* A deadline that never binds only caps work far above what any
         request needs, so it must not change a byte either. *)
      let ample =
        with_dispatch ~jobs:2 (fun d ->
            List.map
              (fun l -> S.Dispatch.handle_line d (S.Load.with_deadline 60_000 l))
              lines)
      in
      Alcotest.(check (list string)) "jobs-independent" serial parallel_cold;
      Alcotest.(check (list string)) "cache-state-independent" serial warm;
      Alcotest.(check (list string)) "ample-deadline-independent" serial ample;
      (* s1 and s2 share content: identical result objects, own ids. *)
      let result_of id =
        List.find_map
          (fun l ->
            match S.Proto.parse_response l with
            | Ok { S.Proto.rid = Some i; result; _ } when i = id -> result
            | _ -> None)
          serial
      in
      Alcotest.(check bool) "duplicate content same result" true
        (result_of "s1" = result_of "s2" && result_of "s1" <> None))

let test_dispatch_batch_dedup () =
  with_dispatch ~jobs:1 (fun d ->
      let envelopes =
        List.map parse_ok [ dsl_line ~id:"a" (); dsl_line ~id:"b" () ]
      in
      let root = Hcv_obs.Trace.root "test" in
      let lines = S.Dispatch.handle d ~obs:root envelopes in
      Alcotest.(check int) "two responses" 2 (List.length lines);
      match Hcv_obs.Trace.export root with
      | None -> Alcotest.fail "expected an exported trace"
      | Some node ->
        Alcotest.(check int) "identical requests computed once" 1
          (Hcv_obs.Trace.counter_total node "serve.unique_cells");
        Alcotest.(check int) "both answered" 2
          (Hcv_obs.Trace.counter_total node "serve.requests"))

let test_dispatch_survives_errors () =
  with_dispatch ~jobs:1 (fun d ->
      (* Malformed, semantically invalid and budget-exhausted requests
         each answer with a structured error — and the dispatcher keeps
         serving afterwards. *)
      let err line =
        match S.Proto.parse_response (S.Dispatch.handle_line d line) with
        | Ok { S.Proto.ok = false; error = Some e; _ } -> Hcv_obs.Diag.code e
        | Ok _ -> Alcotest.failf "expected an error response for %S" line
        | Error m -> Alcotest.failf "unparseable response: %s" m
      in
      Alcotest.(check string) "bad json" "bad-json" (err "{");
      Alcotest.(check string) "unknown benchmark" "unknown-benchmark"
        (err {|{"id":"x","op":"explore","bench":"nosuchbench"}|});
      Alcotest.(check string) "strict budget" "budget-exhausted"
        (err (dsl_line ~id:"x" ~budget:1 ()));
      (* degrade:true turns the same exhaustion into a degraded ok. *)
      (match
         S.Proto.parse_response
           (S.Dispatch.handle_line d (dsl_line ~id:"y" ~budget:1 ~degrade:true ()))
       with
      | Ok { S.Proto.ok = true; result = Some r; _ } ->
        let causes =
          match Option.bind (E.Jsonx.member "causes" r) E.Jsonx.list with
          | Some l -> List.filter_map E.Jsonx.str l
          | None -> []
        in
        Alcotest.(check bool) "causes name the exhaustion" true
          (List.mem "budget-exhausted" causes)
      | Ok _ -> Alcotest.fail "expected a degraded ok response"
      | Error m -> Alcotest.failf "unparseable response: %s" m);
      (* Still alive. *)
      match S.Proto.parse_response (S.Dispatch.handle_line d (dsl_line ())) with
      | Ok { S.Proto.ok = true; _ } -> ()
      | _ -> Alcotest.fail "dispatcher stopped serving after errors")

let test_stats_volatile () =
  with_dispatch ~jobs:1 (fun d ->
      let stats () =
        match
          S.Proto.parse_response
            (S.Dispatch.handle_line d {|{"id":"s","op":"stats"}|})
        with
        | Ok { S.Proto.ok = true; result = Some r; _ } -> r
        | _ -> Alcotest.fail "stats did not answer"
      in
      let volatile r =
        match E.Jsonx.member "volatile" r with
        | Some v -> v
        | None -> Alcotest.fail "stats carries no volatile object"
      in
      let num v name =
        match Option.bind (E.Jsonx.member name v) E.Jsonx.num with
        | Some n -> n
        | None -> Alcotest.failf "volatile field %s missing" name
      in
      let v0 = volatile (stats ()) in
      Alcotest.(check (float 0.0)) "no sheds yet" 0.0 (num v0 "shed");
      Alcotest.(check (float 0.0)) "no drains yet" 0.0 (num v0 "drained");
      Alcotest.(check (float 0.0)) "no deadline misses yet" 0.0
        (num v0 "deadline_exceeded");
      Alcotest.(check bool) "uptime present" true (num v0 "uptime_s" >= 0.0);
      (* Tallies and registered gauges feed in live. *)
      S.Dispatch.set_gauges d (fun () -> [ ("queue_depth", 7.0) ]);
      ignore (S.Dispatch.refuse d (S.Proto.overloaded_diag ~queue_depth:9));
      S.Dispatch.note_drained d;
      ignore (S.Dispatch.handle_line d (dsl_line ~deadline_ms:0 ()));
      let v1 = volatile (stats ()) in
      Alcotest.(check (float 0.0)) "shed tally" 1.0 (num v1 "shed");
      Alcotest.(check (float 0.0)) "drained tally" 1.0 (num v1 "drained");
      Alcotest.(check (float 0.0)) "deadline tally" 1.0
        (num v1 "deadline_exceeded");
      Alcotest.(check (float 0.0)) "registered gauge" 7.0
        (num v1 "queue_depth"))

let test_quarantine_repeat () =
  let line = dsl_line ~id:"f1" () in
  let fresh = with_dispatch ~jobs:1 (fun d -> S.Dispatch.handle_line d line) in
  with_dispatch ~jobs:1 (fun d ->
      (* A persistent injected fault quarantines the request... *)
      let plan =
        R.Inject.plan ~seed:5
          [ R.Inject.spec ~max_fires:1 ~transient:false R.Inject.Task_raise ]
      in
      let first =
        R.Inject.with_plan plan (fun () -> S.Dispatch.handle_line d line)
      in
      Alcotest.(check string) "quarantined" "injected-fault"
        (error_code_of first);
      (* ... and once the fault is gone its identical repeat is computed
         again: the answer is a function of the line, not of what the
         daemon answered before. *)
      Alcotest.(check string) "repeat answered as by a fresh dispatcher"
        fresh
        (S.Dispatch.handle_line d line))

(* An exception escaping admission answers its own envelope [internal];
   the rest of the batch is answered normally. *)
let test_dispatch_guard () =
  let w = work_of (dsl_line ~id:"g1" ()) in
  let broken =
    {
      w with
      S.Proto.spec =
        { w.S.Proto.spec with S.Proto.machine = S.Proto.Desc "not a machine" };
    }
  in
  with_dispatch ~jobs:1 (fun d ->
      match
        S.Dispatch.handle d
          [
            { S.Proto.id = "g1"; req = S.Proto.Run broken };
            parse_ok (dsl_line ~id:"g2" ());
          ]
      with
      | [ bad; good ] ->
        (match S.Proto.parse_response bad with
        | Ok { S.Proto.rid = Some "g1"; error = Some e; _ } ->
          Alcotest.(check string) "internal" "internal" (Hcv_obs.Diag.code e);
          Alcotest.(check bool) "exception text in context" true
            (List.mem_assoc "exn" e.Hcv_obs.Diag.context)
        | _ -> Alcotest.failf "expected an internal error, got %s" bad);
        (match S.Proto.parse_response good with
        | Ok { S.Proto.ok = true; rid = Some "g2"; _ } -> ()
        | _ -> Alcotest.failf "the next envelope was not answered: %s" good);
        Alcotest.(check int) "both counted" 2 (S.Dispatch.served d);
        Alcotest.(check int) "one error" 1 (S.Dispatch.errors d)
      | _ -> Alcotest.fail "expected two responses")

(* ----- the cache: a warm answer is the cold answer ------------------ *)

(* Answer [lines] one by one over the on-disk cache in [dir]; returns the
   answers and the cache's (hits, misses). *)
let answer_cached dir lines =
  let cache = E.Cache.open_dir dir in
  let engine = E.Engine.create ~jobs:1 ~cache () in
  Fun.protect
    ~finally:(fun () -> E.Engine.shutdown engine)
    (fun () ->
      let d = S.Dispatch.create engine in
      let answers = List.map (S.Dispatch.handle_line d) lines in
      let s = E.Cache.stats cache in
      (answers, (s.E.Cache.hits, s.E.Cache.misses)))

let answer_uncached lines =
  with_dispatch ~jobs:1 (fun d -> List.map (S.Dispatch.handle_line d) lines)

let explore_line = {|{"id":"e","op":"explore","bench":"wupwise","loops":1,"seed":7}|}

let test_warm_equals_cold () =
  let lines =
    explore_line
    :: {|{"id":"f","op":"frontier","bench":"wupwise","loops":1,"seed":7}|}
    :: S.Load.requests ~mix:S.Load.Full ~n_loops:1 ~seed:3 16
  in
  let uncached = answer_uncached lines in
  with_temp_dir "warm" (fun dir ->
      let cold, _ = answer_cached dir lines in
      let warm, (hits, misses) = answer_cached dir lines in
      Alcotest.(check (list string)) "a cold cache changes no byte" uncached
        cold;
      Alcotest.(check (list string)) "warm = cold, byte for byte" cold warm;
      Alcotest.(check bool) "the warm pass hit" true (hits > 0);
      Alcotest.(check int) "every warm lookup decoded" 0 misses)

(* The CLI's sweeps and the daemon share keys and values: a cell a sweep
   cached answers the daemon's request for it. *)
let test_sweep_entry_answers () =
  let cold = answer_uncached [ explore_line ] in
  with_temp_dir "shared" (fun dir ->
      let loops_of (c : Sweep.cell) =
        Hcv_workload.Specfp.loops ?n_loops:c.Sweep.n_loops ~seed:c.Sweep.seed
          (Option.get (Hcv_workload.Specfp.find c.Sweep.bench))
      in
      let engine = E.Engine.create ~jobs:1 ~cache:(E.Cache.open_dir dir) () in
      Fun.protect
        ~finally:(fun () -> E.Engine.shutdown engine)
        (fun () ->
          ignore
            (Sweep.run engine ~loops_of
               [ Sweep.cell ~n_loops:1 ~seed:7 "wupwise" ]));
      let warm, stats = answer_cached dir [ explore_line ] in
      Alcotest.(check (list string)) "answered as by a cold daemon" cold warm;
      Alcotest.(check (pair int int)) "from the sweep's entry" (1, 0) stats)

(* A value in the salt-v2 layout under the request's key, its ratio
   doctored so that answering it would show, decodes to nothing: the
   daemon recomputes the cell and replaces the entry. *)
let test_stale_layout_recomputed () =
  let cold = answer_uncached [ explore_line ] in
  let task = admit_ok explore_line in
  let stale = { (S.Registry.run task) with Sweep.ed2_ratio = 0.5 } in
  with_temp_dir "stale" (fun dir ->
      let cache = E.Cache.open_dir dir in
      E.Cache.store cache ~key:(S.Registry.key task) (Test_sweep.v2_layout stale);
      E.Cache.close cache;
      let answers, stats = answer_cached dir [ explore_line ] in
      Alcotest.(check (list string)) "recomputed, not answered" cold answers;
      Alcotest.(check (pair int int)) "the stale value missed" (0, 1) stats;
      let again, stats = answer_cached dir [ explore_line ] in
      Alcotest.(check (list string)) "then served" cold again;
      Alcotest.(check (pair int int)) "from the replacement" (1, 0) stats)

(* ----- server: the socket loop end to end -------------------------- *)

let test_server_socket () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hcvliw-test-serve-%d.sock" (Unix.getpid ()))
  in
  let listen = S.Server.listen_unix path in
  let srv =
    Domain.spawn (fun () ->
        let engine = E.Engine.create ~jobs:1 () in
        Fun.protect
          ~finally:(fun () -> E.Engine.shutdown engine)
          (fun () ->
            let dispatch = S.Dispatch.create engine in
            S.Server.run (S.Server.create ~dispatch listen);
            (S.Dispatch.served dispatch, S.Dispatch.errors dispatch)))
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let ask line =
    output_string oc line;
    output_char oc '\n';
    flush oc;
    input_line ic
  in
  (match S.Proto.parse_response (ask {|{"id":"p1","op":"ping"}|}) with
  | Ok { S.Proto.ok = true; rid = Some "p1"; _ } -> ()
  | _ -> Alcotest.fail "ping failed");
  (* A malformed line answers in-stream; the connection stays up. *)
  (match S.Proto.parse_response (ask "garbage") with
  | Ok { S.Proto.ok = false; rid = None; _ } -> ()
  | _ -> Alcotest.fail "malformed line not answered with an error");
  (match S.Proto.parse_response (ask (dsl_line ~id:"w" ())) with
  | Ok { S.Proto.ok = true; rid = Some "w"; result = Some _; _ } -> ()
  | _ -> Alcotest.fail "schedule request failed");
  (match S.Proto.parse_response (ask {|{"id":"bye","op":"shutdown"}|}) with
  | Ok { S.Proto.ok = true; rid = Some "bye"; _ } -> ()
  | _ -> Alcotest.fail "shutdown not acknowledged");
  Unix.close fd;
  (* Parse-level errors are answered by the socket loop itself, but
     rendered and counted by the dispatcher like every other line. *)
  let served, errors = Domain.join srv in
  Alcotest.(check int) "dispatched" 4 served;
  Alcotest.(check int) "dispatch errors" 1 errors;
  Alcotest.(check bool) "socket file still present" true (Sys.file_exists path);
  Sys.remove path

let sock_path tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "hcvliw-test-%s-%d.sock" tag (Unix.getpid ()))

let connect_to path () =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let spawn_server ?batch_max ?max_requests ?max_line ?slow_timeout_s
    ?max_pending listen =
  Domain.spawn (fun () ->
      let engine = E.Engine.create ~jobs:1 () in
      Fun.protect
        ~finally:(fun () -> E.Engine.shutdown engine)
        (fun () ->
          let dispatch = S.Dispatch.create engine in
          S.Server.run
            (S.Server.create ?batch_max ?max_requests ?max_line
               ?slow_timeout_s ?max_pending ~dispatch listen);
          S.Dispatch.served dispatch))

let test_server_pipelined_burst () =
  (* More pipelined requests than [batch_max] in a single write: the
     lines past the cap must still be answered without further socket
     traffic (a capped round polls its residual queue instead of
     blocking in select). *)
  let path = sock_path "burst" in
  let srv = spawn_server ~batch_max:2 (S.Server.listen_unix path) in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let n = 9 in
  for i = 0 to n - 1 do
    output_string oc (Printf.sprintf {|{"id":"p%d","op":"ping"}|} i);
    output_char oc '\n'
  done;
  output_string oc {|{"id":"bye","op":"shutdown"}|};
  output_char oc '\n';
  flush oc;
  (* All n + 1 responses arrive, in request order. *)
  for i = 0 to n - 1 do
    match S.Proto.parse_response (input_line ic) with
    | Ok { S.Proto.ok = true; rid = Some id; _ } ->
      Alcotest.(check string) "in-order response" (Printf.sprintf "p%d" i) id
    | _ -> Alcotest.failf "ping %d not answered" i
  done;
  (match S.Proto.parse_response (input_line ic) with
  | Ok { S.Proto.ok = true; rid = Some "bye"; _ } -> ()
  | _ -> Alcotest.fail "shutdown not acknowledged");
  Unix.close fd;
  Alcotest.(check int) "all requests dispatched" (n + 1) (Domain.join srv);
  Sys.remove path

let test_server_max_requests () =
  (* The self-terminating CI mode: every answer within the cap must be
     fully written out before the loop exits and closes the socket. *)
  let path = sock_path "maxreq" in
  let srv = spawn_server ~max_requests:3 (S.Server.listen_unix path) in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  for i = 0 to 2 do
    output_string oc (Printf.sprintf {|{"id":"m%d","op":"ping"}|} i);
    output_char oc '\n'
  done;
  flush oc;
  for i = 0 to 2 do
    match S.Proto.parse_response (input_line ic) with
    | Ok { S.Proto.ok = true; rid = Some id; _ } ->
      Alcotest.(check string) "capped response" (Printf.sprintf "m%d" i) id
    | _ -> Alcotest.failf "request %d lost at the cap" i
  done;
  Alcotest.(check int) "served up to the cap" 3 (Domain.join srv);
  Unix.close fd;
  Sys.remove path

(* ----- server overload protection ---------------------------------- *)

let shutdown_ok connect =
  match S.Load.run_requests ~connect [ {|{"id":"bye","op":"shutdown"}|} ] with
  | [ (_, Some r) ] when S.Load.classify r = S.Load.Ok_answer -> ()
  | _ -> Alcotest.fail "daemon did not survive to acknowledge shutdown"

let test_server_sheds_overload () =
  let path = sock_path "shed" in
  let srv = spawn_server ~max_pending:4 (S.Server.listen_unix path) in
  let connect = connect_to path in
  let lines =
    List.init 32 (fun i -> Printf.sprintf {|{"id":"b%02d","op":"ping"}|} i)
  in
  let resps = S.Load.run_burst ~connect lines in
  Alcotest.(check int) "every burst line answered" 32 (List.length resps);
  let sheds = List.filter (fun r -> S.Load.classify r = S.Load.Shed) resps in
  Alcotest.(check bool) "backlog beyond the cap shed" true (sheds <> []);
  (* The overloaded answer keeps the salvaged id and reports the
     depth. *)
  (match S.Proto.parse_response (List.hd sheds) with
  | Ok { S.Proto.rid = Some _; error = Some e; _ } ->
    Alcotest.(check bool) "queue depth in context" true
      (List.mem_assoc "queue_depth" e.Hcv_obs.Diag.context)
  | _ -> Alcotest.fail "shed response malformed");
  (* Only the flooding connection was penalised; the daemon survives. *)
  shutdown_ok connect;
  ignore (Domain.join srv);
  Sys.remove path

let test_server_half_close () =
  let path = sock_path "halfclose" in
  let srv = spawn_server (S.Server.listen_unix path) in
  let fd = connect_to path () in
  let ic = Unix.in_channel_of_descr fd in
  (* Two complete lines, a torn tail, then half-close the write side:
     the complete lines are still answered, the torn tail is dropped,
     and the server reaps the slot cleanly. *)
  let payload =
    {|{"id":"h0","op":"ping"}|} ^ "\n" ^ {|{"id":"h1","op":"ping"}|} ^ "\n"
    ^ {|{"id":"torn","op":"explore","bench":"ap|}
  in
  let n = Unix.write_substring fd payload 0 (String.length payload) in
  Alcotest.(check int) "payload written" (String.length payload) n;
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  List.iter
    (fun id ->
      match S.Proto.parse_response (input_line ic) with
      | Ok { S.Proto.ok = true; rid = Some got; _ } ->
        Alcotest.(check string) "pipelined line answered after eof" id got
      | _ -> Alcotest.failf "request %s lost at half-close" id)
    [ "h0"; "h1" ];
  (match input_line ic with
  | _ -> Alcotest.fail "torn tail must not be answered"
  | exception End_of_file -> ());
  Unix.close fd;
  (* Other connections were never disturbed. *)
  shutdown_ok (connect_to path);
  ignore (Domain.join srv);
  Sys.remove path

let test_server_reaps_slowloris () =
  let path = sock_path "loris" in
  let srv = spawn_server ~slow_timeout_s:0.2 (S.Server.listen_unix path) in
  let connect = connect_to path in
  Alcotest.(check bool) "slowloris reaped" true
    (S.Load.run_slowloris ~connect ~duration_s:0.6 ~interval_s:0.01
       ~reap_grace_s:10. ());
  shutdown_ok connect;
  ignore (Domain.join srv);
  Sys.remove path

let test_server_graceful_drain () =
  let path = sock_path "drain" in
  let listen = S.Server.listen_unix path in
  let srv =
    Domain.spawn (fun () ->
        let engine = E.Engine.create ~jobs:1 () in
        Fun.protect
          ~finally:(fun () -> E.Engine.shutdown engine)
          (fun () ->
            let dispatch = S.Dispatch.create engine in
            S.Server.run (S.Server.create ~dispatch listen);
            S.Dispatch.drained dispatch))
  in
  (* A request pipelined with the shutdown in one write must still be
     answered, and the batch lands while draining. *)
  let resps =
    S.Load.run_burst ~connect:(connect_to path)
      [ {|{"id":"da","op":"ping"}|}; {|{"id":"bye","op":"shutdown"}|} ]
  in
  Alcotest.(check int) "both pipelined lines answered" 2 (List.length resps);
  List.iter
    (fun r ->
      if S.Load.classify r <> S.Load.Ok_answer then
        Alcotest.failf "drain-phase answer is an error: %s" r)
    resps;
  Alcotest.(check bool) "answered during drain" true (Domain.join srv >= 1);
  Sys.remove path

(* A negative edge distance is answered in stream position, and the
   daemon goes on to answer the next line. *)
let test_server_negative_distance () =
  let path = sock_path "negdist" in
  let srv = spawn_server (S.Server.listen_unix path) in
  let connect = connect_to path in
  (match
     S.Load.run_requests ~connect
       [
         {|{"id":"b","op":"schedule","dsl":"loop acc\n node a ld.f\n node b add.f\n edge a b dist -1\nend\n"}|};
         {|{"id":"p","op":"ping"}|};
       ]
   with
  | [ (_, Some bad); (_, Some ping) ] ->
    (match S.Proto.parse_response bad with
    | Ok { S.Proto.rid = Some "b"; error = Some e; _ } ->
      Alcotest.(check string) "bad-dsl" "bad-dsl" (Hcv_obs.Diag.code e);
      Alcotest.(check (option string)) "line 4" (Some "4")
        (List.assoc_opt "line" e.Hcv_obs.Diag.context)
    | _ -> Alcotest.failf "expected a bad-dsl answer, got %s" bad);
    Alcotest.(check bool) "ping answered after it" true
      (S.Load.classify ping = S.Load.Ok_answer)
  | _ -> Alcotest.fail "the daemon stopped answering");
  shutdown_ok connect;
  ignore (Domain.join srv);
  Sys.remove path

let test_server_chaos_identity () =
  (* The reactor under torn reads and one-byte writes answers the exact
     bytes a fault-free in-process dispatcher does: socket faults are
     granularity perturbations, never data corruption. *)
  let lines =
    [
      dsl_line ~id:"c0" ();
      {|{"id":"c1","op":"ping"}|};
      dsl_line ~id:"c2" ~deadline_ms:0 ();
    ]
  in
  let expected =
    with_dispatch ~jobs:1 (fun d ->
        List.map (S.Dispatch.handle_line d) lines)
  in
  let path = sock_path "chaosid" in
  let plan =
    R.Inject.plan ~seed:11
      [
        R.Inject.spec ~prob:0.5 ~max_fires:max_int R.Inject.Torn_frame;
        R.Inject.spec ~prob:0.5 ~max_fires:max_int R.Inject.Slow_write;
      ]
  in
  let got =
    R.Inject.with_plan plan (fun () ->
        let srv = spawn_server (S.Server.listen_unix path) in
        let connect = connect_to path in
        let got = S.Load.run_requests ~connect lines in
        shutdown_ok connect;
        ignore (Domain.join srv);
        got)
  in
  List.iter2
    (fun want (_, resp) ->
      Alcotest.(check (option string)) "byte-identical under chaos"
        (Some want) resp)
    expected got;
  Sys.remove path

let test_listen_unix_guard () =
  (* The endpoint is claimed defensively: a live daemon's socket and a
     non-socket file are errors; only a stale socket is unlinked. *)
  let path = sock_path "guard" in
  let oc = open_out path in
  close_out oc;
  (match S.Server.listen_unix path with
  | _ -> Alcotest.fail "bound over a regular file"
  | exception Failure _ -> ());
  Sys.remove path;
  let live = S.Server.listen_unix path in
  (match S.Server.listen_unix path with
  | _ -> Alcotest.fail "stole a live daemon's socket"
  | exception Failure _ -> ());
  Unix.close live;
  (* The socket file of the closed listener is now stale: reclaimable. *)
  Alcotest.(check bool) "stale socket file left behind" true
    (Sys.file_exists path);
  let fresh = S.Server.listen_unix path in
  Unix.close fresh;
  Sys.remove path

(* ----- load: the generator is a pure function of the seed ---------- *)

let test_load_deterministic () =
  let a = S.Load.requests ~seed:3 25 in
  let b = S.Load.requests ~seed:3 25 in
  Alcotest.(check (list string)) "same seed, same stream" a b;
  Alcotest.(check bool) "different seed, different stream" true
    (S.Load.requests ~seed:4 25 <> a);
  (* Every line either parses or is deliberately malformed — and the
     full mix must contain both kinds. *)
  let parsed, broken =
    List.partition (fun l -> Result.is_ok (S.Proto.parse l)) a
  in
  Alcotest.(check bool) "has well-formed requests" true (parsed <> []);
  Alcotest.(check bool) "has adversarial requests" true (broken <> [])

let test_percentile () =
  let xs = [ 5.0; 1.0; 4.0; 2.0; 3.0 ] in
  Alcotest.(check (float 1e-9)) "p50" 3.0 (S.Load.percentile xs 0.50);
  Alcotest.(check (float 1e-9)) "p99" 5.0 (S.Load.percentile xs 0.99);
  Alcotest.(check bool) "empty is nan" true
    (Float.is_nan (S.Load.percentile [] 0.5))

let suite =
  [
    Alcotest.test_case "frame reassembles torn lines" `Quick test_frame_torn;
    Alcotest.test_case "frame bounds oversized lines" `Quick
      test_frame_oversized;
    Alcotest.test_case "frame survives byte reads and dropped partials"
      `Quick test_frame_drop_partial;
    Alcotest.test_case "proto parses requests" `Quick test_proto_parse;
    Alcotest.test_case "proto refuses an inexact seed" `Quick test_proto_seed;
    Alcotest.test_case "proto machine field" `Quick test_proto_machine;
    Alcotest.test_case "every boundary refuses unknown, duplicate and \
                        mistyped fields" `Quick test_boundary_refusals;
    Alcotest.test_case "proto renders responses" `Quick test_proto_responses;
    Alcotest.test_case "registry content keys" `Quick test_registry_keys;
    Alcotest.test_case "frontier op" `Quick test_frontier_op;
    Alcotest.test_case "registry rejections" `Quick test_registry_rejections;
    Alcotest.test_case "registry refuses bad edge fields" `Quick
      test_registry_bad_edge_fields;
    Alcotest.test_case "dispatch is deterministic" `Quick
      test_dispatch_deterministic;
    Alcotest.test_case "dispatch dedups a batch" `Quick
      test_dispatch_batch_dedup;
    Alcotest.test_case "dispatch survives bad requests" `Quick
      test_dispatch_survives_errors;
    Alcotest.test_case "registry compiles deadlines onto budgets" `Quick
      test_deadline_compile_registry;
    Alcotest.test_case "dispatch renders deadline-exceeded" `Quick
      test_deadline_render;
    Alcotest.test_case "stats separates volatile fields" `Quick
      test_stats_volatile;
    Alcotest.test_case "quarantine repeat is recomputed" `Quick
      test_quarantine_repeat;
    Alcotest.test_case "dispatch guards admission" `Quick test_dispatch_guard;
    Alcotest.test_case "warm answers equal cold answers" `Slow
      test_warm_equals_cold;
    Alcotest.test_case "a sweep's cache entry answers the daemon" `Quick
      test_sweep_entry_answers;
    Alcotest.test_case "an old-layout entry is recomputed" `Quick
      test_stale_layout_recomputed;
    Alcotest.test_case "server socket loop" `Quick test_server_socket;
    Alcotest.test_case "server answers a negative edge distance" `Quick
      test_server_negative_distance;
    Alcotest.test_case "server drains a pipelined burst past batch_max"
      `Quick test_server_pipelined_burst;
    Alcotest.test_case "server flushes answers before max-requests exit"
      `Quick test_server_max_requests;
    Alcotest.test_case "server sheds an overload burst" `Quick
      test_server_sheds_overload;
    Alcotest.test_case "server answers pipelined lines at half-close"
      `Quick test_server_half_close;
    Alcotest.test_case "server reaps a slowloris peer" `Quick
      test_server_reaps_slowloris;
    Alcotest.test_case "server drains gracefully on shutdown" `Quick
      test_server_graceful_drain;
    Alcotest.test_case "server is byte-identical under socket chaos"
      `Quick test_server_chaos_identity;
    Alcotest.test_case "listen_unix reclaims only stale sockets" `Quick
      test_listen_unix_guard;
    Alcotest.test_case "load stream is seed-pure" `Quick
      test_load_deterministic;
    Alcotest.test_case "latency percentiles" `Quick test_percentile;
  ]
