(* Sweep cells: content keys, outcome/choice serialization, and the
   end-to-end parallel-equals-serial property of Sweep.run. *)

open Hcv_energy
open Hcv_core
module E = Hcv_explore

let default_cell = Sweep.cell "applu"

let test_cell_key_stable () =
  (* Same inputs, same key — the property resuming from a cache depends
     on. *)
  Alcotest.(check string)
    "key is a pure function of the cell"
    (Sweep.cell_key default_cell)
    (Sweep.cell_key (Sweep.cell "applu"))

let test_cell_key_distinct () =
  let variants =
    [
      ("bench", Sweep.cell "apsi");
      ("buses", Sweep.cell ~buses:2 "applu");
      ("loops", Sweep.cell ~n_loops:3 "applu");
      ("seed", Sweep.cell ~seed:7 "applu");
      ("grid", Sweep.cell ~grid_steps:8 "applu");
      ( "params",
        Sweep.cell ~params:(Params.make ~frac_icn:0.2 ()) "applu" );
      ("frontier", Sweep.cell ~frontier:Frontier.default_spec "applu");
      ( "frontier-caps",
        Sweep.cell
          ~frontier:
            (Frontier.spec
               ~caps:[ { Frontier.cap = Frontier.Energy; bound = 2.0 } ]
               ())
          "applu" );
    ]
  in
  let base = Sweep.cell_key default_cell in
  List.iter
    (fun (what, c) ->
      Alcotest.(check bool)
        (Printf.sprintf "changing %s changes the key" what)
        false
        (String.equal base (Sweep.cell_key c)))
    variants;
  (* All variant keys are also pairwise distinct. *)
  let keys = base :: List.map (fun (_, c) -> Sweep.cell_key c) variants in
  Alcotest.(check int) "no collisions" (List.length keys)
    (List.length (Hcv_support.Listx.uniq keys))

let outcome_eq (a : Sweep.outcome) (b : Sweep.outcome) =
  let feq x y =
    (Float.is_nan x && Float.is_nan y)
    || Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  in
  String.equal a.bench b.bench
  && feq a.ed2_ratio b.ed2_ratio
  && feq a.time_ratio b.time_ratio
  && feq a.energy_ratio b.energy_ratio
  && a.fallbacks = b.fallbacks
  && a.causes = b.causes
  && a.hetero = b.hetero
  && a.frontier = b.frontier
  && a.error = b.error
  && Option.map Sweep.trace_text a.trace = Option.map Sweep.trace_text b.trace

let outcome =
  Alcotest.testable
    (fun ppf (o : Sweep.outcome) ->
      Format.fprintf ppf "%s ed2=%h err=%s" o.bench o.ed2_ratio
        (Option.value ~default:"-" o.error))
    outcome_eq

let fake_choice tag = E.Jsonx.Obj [ ("config", E.Jsonx.Str tag) ]

let test_outcome_roundtrip () =
  (* The deterministic view only: zero wall, no volatile gauges —
     exactly what run_cell keeps. *)
  let trace =
    E.Jsonx.to_string
      (E.Tracex.json_of_node
         {
           Hcv_obs.Trace.name = "cell:applu";
           attrs = [ ("bench", "applu") ];
           counters = [ ("hsched.attempts", 3); ("pseudo.evals", 7) ];
           volatile = [];
           wall_ns = 0.0;
           children = [];
         })
  in
  let ok : Sweep.outcome =
    {
      bench = "applu";
      ed2_ratio = 0.8748906986305911;
      time_ratio = 1.02;
      energy_ratio = 0.84;
      fallbacks = 1;
      causes = [ "no-valid-it" ];
      hetero = fake_choice "fake";
      frontier = [ fake_choice "fake"; fake_choice "fake2" ];
      error = None;
      trace = Some { Sweep.text = trace; start = 0 };
    }
  in
  let failed : Sweep.outcome =
    {
      bench = "apsi";
      ed2_ratio = Float.nan;
      time_ratio = Float.nan;
      energy_ratio = Float.nan;
      fallbacks = 0;
      causes = [];
      hetero = E.Jsonx.Null;
      frontier = [];
      error = Some "scheduling failed: \"II overflow\"\nat line 2";
      trace = None;
    }
  in
  List.iter
    (fun o ->
      match Sweep.outcome_of_string (Sweep.outcome_to_string o) with
      | Some o' -> Alcotest.check outcome o.Sweep.bench o o'
      | None -> Alcotest.failf "%s: decode failed" o.Sweep.bench)
    [ ok; failed ];
  (* The trace rides on its own line after the outcome object. *)
  Alcotest.(check (option string)) "trace on the second line" (Some trace)
    (match String.split_on_char '\n' (Sweep.outcome_to_string ok) with
    | [ _; t ] -> Some t
    | _ -> None);
  Alcotest.(check bool) "garbage rejected" true
    (Sweep.outcome_of_string "{broken" = None)

(* An outcome in the layout written under salt v2: choices as escaped
   JSON strings, the trace inline as a member, one line. *)
let v2_layout (o : Sweep.outcome) =
  let str_of = function E.Jsonx.Null -> "" | j -> E.Jsonx.to_string j in
  let opt k = function [] -> [] | l -> [ (k, E.Jsonx.List l) ] in
  E.Jsonx.to_string
    (E.Jsonx.Obj
       ([
          ("bench", E.Jsonx.Str o.bench);
          ("ed2", E.Jsonx.Str (E.Codec.float_to_string o.ed2_ratio));
          ("time", E.Jsonx.Str (E.Codec.float_to_string o.time_ratio));
          ("energy", E.Jsonx.Str (E.Codec.float_to_string o.energy_ratio));
          ("fallbacks", E.Jsonx.Num (float_of_int o.fallbacks));
          ("hetero", E.Jsonx.Str (str_of o.hetero));
        ]
       @ opt "causes" (List.map (fun c -> E.Jsonx.Str c) o.causes)
       @ opt "frontier" (List.map (fun m -> E.Jsonx.Str (str_of m)) o.frontier)
       @ (match o.error with None -> [] | Some m -> [ ("error", E.Jsonx.Str m) ])
       @
       match
         Option.map (fun t -> E.Jsonx.of_string (Sweep.trace_text t)) o.trace
       with
       | Some (Ok t) -> [ ("trace", t) ]
       | Some (Error _) | None -> []))

let test_outcome_legacy_causes () =
  (* Values written under older salts never decode, so the engine
     recomputes the cell instead of answering from a stale layout:
     pre-causes entries, with fallbacks or without, and v2 entries. *)
  let legacy fallbacks =
    Printf.sprintf
      {|{"bench":"applu","ed2":"0x1.c0p-1","time":"0x1p0","energy":"0x1p-1","fallbacks":%d,"hetero":"h"}|}
      fallbacks
  in
  Alcotest.(check bool) "fallbacks without causes is stale" true
    (Sweep.outcome_of_string (legacy 1) = None);
  Alcotest.(check bool) "a clean pre-causes entry is stale" true
    (Sweep.outcome_of_string (legacy 0) = None);
  let trace =
    {|{"span":"cell:applu","counters":{"hsched.attempts":3}}|}
  in
  let v3 : Sweep.outcome =
    {
      bench = "applu";
      ed2_ratio = 0.875;
      time_ratio = 1.0;
      energy_ratio = 0.5;
      fallbacks = 0;
      causes = [];
      hetero = fake_choice "fake";
      frontier = [ fake_choice "fake" ];
      error = None;
      trace = Some { Sweep.text = trace; start = 0 };
    }
  in
  let failed =
    { v3 with hetero = E.Jsonx.Null; frontier = []; error = Some "boom" }
  in
  List.iter
    (fun (what, (o : Sweep.outcome)) ->
      Alcotest.(check bool) (what ^ ": v3 decodes") true
        (Sweep.outcome_of_string (Sweep.outcome_to_string o) <> None);
      Alcotest.(check bool) (what ^ ": its v2 layout is stale") true
        (Sweep.outcome_of_string (v2_layout o) = None))
    [ ("ok", v3); ("failed", failed) ]

(* A cheap synthetic workload standing in for a SPECfp benchmark so the
   end-to-end tests run in test-suite time. *)
let loops_of (c : Sweep.cell) =
  match c.Sweep.bench with
  | "tiny-dot" -> [ Builders.dotprod ~trip:50 () ]
  | "tiny-mix" ->
      [ Builders.recurrence_loop ~trip:50 (); Builders.wide_loop ~trip:50 () ]
  | b -> Alcotest.failf "unexpected bench %s" b

(* Paper-machine cells plus one frontier cell and one capability-
   asymmetric family cell, so both kinds share the jobs/cache contract. *)
let cells =
  [
    Sweep.cell "tiny-dot";
    Sweep.cell "tiny-mix";
    Sweep.cell ~frontier:Frontier.default_spec "tiny-dot";
    Sweep.cell ~machine:(Sweep.Family "big-little") "tiny-mix";
  ]

let run_with ?cache ?obs jobs =
  let engine = E.Engine.create ~jobs ?cache () in
  Fun.protect
    ~finally:(fun () -> E.Engine.shutdown engine)
    (fun () -> Sweep.run engine ?obs ~loops_of cells)

let test_run_parallel_equals_serial () =
  let serial = run_with 1 in
  let parallel = run_with 3 in
  Alcotest.(check (list outcome)) "jobs=3 equals jobs=1" serial parallel;
  List.iter
    (fun (o : Sweep.outcome) ->
      Alcotest.(check (option string))
        (o.bench ^ " succeeded") None o.error;
      Alcotest.(check bool)
        (o.bench ^ " ed2 ratio sane") true
        (Float.is_finite o.ed2_ratio && o.ed2_ratio > 0.))
    serial;
  Alcotest.(check bool) "the frontier cell has members" true
    (List.exists (fun (o : Sweep.outcome) -> o.frontier <> []) serial)

let test_choice_roundtrip_and_cache_replay () =
  (* Round-trip the winning choice of a real run, and check a cached
     replay reproduces the outcome bit-for-bit. *)
  let cache = E.Cache.in_memory () in
  let cold = run_with ~cache 1 in
  let warm = run_with ~cache 1 in
  Alcotest.(check (list outcome)) "cache replay identical" cold warm;
  let s = E.Cache.stats cache in
  Alcotest.(check int) "second run all hits" (List.length cells)
    s.E.Cache.hits;
  List.iter2
    (fun (c : Sweep.cell) (o : Sweep.outcome) ->
      let machine = Sweep.machine_of_cell c in
      match Sweep.choice_of_json ~machine o.hetero with
      | None -> Alcotest.failf "%s: choice decode failed" o.bench
      | Some choice ->
          Alcotest.(check string)
            (o.bench ^ " choice round-trips")
            (E.Jsonx.to_string o.hetero)
            (E.Jsonx.to_string (Sweep.choice_to_json choice)))
    cells cold

let test_warm_trace_graft () =
  (* A warm sweep grafts, from the cached trace text, the very span tree
     a cold sweep collected: the stripped JSONL is byte-identical. *)
  let cache = E.Cache.in_memory () in
  let traced ?cache () =
    let root = Hcv_obs.Trace.root "t" in
    ignore (run_with ?cache ~obs:root 1);
    E.Tracex.jsonl (Option.get (Hcv_obs.Trace.export root))
  in
  let uncached = traced () in
  let cold = traced ~cache () in
  let warm = traced ~cache () in
  Alcotest.(check int) "the warm sweep is all hits" (List.length cells)
    (E.Cache.stats cache).E.Cache.hits;
  Alcotest.(check (list string)) "cold graft = uncached" uncached cold;
  Alcotest.(check (list string)) "warm graft = cold graft" cold warm;
  Alcotest.(check bool) "each cell contributes its spans" true
    (List.length
       (List.filter
          (String.starts_with ~prefix:{|{"depth":2,"span":"cell:|})
          warm)
    = List.length cells)

let suite =
  [
    Alcotest.test_case "cell key is stable" `Quick test_cell_key_stable;
    Alcotest.test_case "cell key separates inputs" `Quick
      test_cell_key_distinct;
    Alcotest.test_case "outcome round-trip (incl. failure)" `Quick
      test_outcome_roundtrip;
    Alcotest.test_case "legacy entries with fallbacks are stale" `Quick
      test_outcome_legacy_causes;
    Alcotest.test_case "parallel run equals serial" `Slow
      test_run_parallel_equals_serial;
    Alcotest.test_case "choice round-trip and cache replay" `Slow
      test_choice_roundtrip_and_cache_replay;
    Alcotest.test_case "warm sweep grafts the cold trace" `Slow
      test_warm_trace_graft;
  ]
