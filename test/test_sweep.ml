(* Sweep cells: content keys, outcome/choice serialization, and the
   end-to-end parallel-equals-serial property of Sweep.run. *)

open Hcv_energy
open Hcv_core
module E = Hcv_explore

let default_cell = Sweep.cell "applu"

let test_cell_key_stable () =
  (* Same inputs, same key — the property --resume depends on. *)
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
  && String.equal a.hetero b.hetero
  && a.frontier = b.frontier
  && a.error = b.error
  && a.trace = b.trace

let outcome =
  Alcotest.testable
    (fun ppf (o : Sweep.outcome) ->
      Format.fprintf ppf "%s ed2=%h err=%s" o.bench o.ed2_ratio
        (Option.value ~default:"-" o.error))
    outcome_eq

let test_outcome_roundtrip () =
  let ok : Sweep.outcome =
    {
      bench = "applu";
      ed2_ratio = 0.8748906986305911;
      time_ratio = 1.02;
      energy_ratio = 0.84;
      fallbacks = 1;
      causes = [ "no-valid-it" ];
      hetero = {|{"config":"fake"}|};
      frontier = [ {|{"config":"fake"}|}; {|{"config":"fake2"}|} ];
      error = None;
      (* The deterministic view only: zero wall, no volatile gauges —
         exactly what the codec keeps. *)
      trace =
        Some
          {
            Hcv_obs.Trace.name = "cell:applu";
            attrs = [ ("bench", "applu") ];
            counters = [ ("hsched.attempts", 3); ("pseudo.evals", 7) ];
            volatile = [];
            wall_ns = 0.0;
            children = [];
          };
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
      hetero = "";
      frontier = [];
      error = Some {|scheduling failed: "II overflow"|};
      trace = None;
    }
  in
  List.iter
    (fun o ->
      match Sweep.outcome_of_string (Sweep.outcome_to_string o) with
      | Some o' -> Alcotest.check outcome o.Sweep.bench o o'
      | None -> Alcotest.failf "%s: decode failed" o.Sweep.bench)
    [ ok; failed ];
  Alcotest.(check bool) "garbage rejected" true
    (Sweep.outcome_of_string "{broken" = None)

let test_outcome_legacy_causes () =
  (* Entries written before outcomes carried "causes": one with
     fallbacks must decode as stale (a warm replay would otherwise omit
     the causes a cold recompute reports), one without decodes as-is. *)
  let legacy fallbacks =
    Printf.sprintf
      {|{"bench":"applu","ed2":"0x1.c0p-1","time":"0x1p0","energy":"0x1p-1","fallbacks":%d,"hetero":"h"}|}
      fallbacks
  in
  Alcotest.(check bool) "fallbacks without causes is stale" true
    (Sweep.outcome_of_string (legacy 1) = None);
  match Sweep.outcome_of_string (legacy 0) with
  | Some o ->
    Alcotest.(check (list string)) "clean entry decodes" [] o.Sweep.causes
  | None -> Alcotest.fail "clean pre-causes entry must decode"

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

let run_with ?cache jobs =
  let engine = E.Engine.create ~jobs ?cache () in
  Fun.protect
    ~finally:(fun () -> E.Engine.shutdown engine)
    (fun () -> Sweep.run engine ~loops_of cells)

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
      match Sweep.choice_of_string ~machine o.hetero with
      | None -> Alcotest.failf "%s: choice decode failed" o.bench
      | Some choice ->
          Alcotest.(check string)
            (o.bench ^ " choice round-trips")
            o.hetero
            (Sweep.choice_to_string choice))
    cells cold

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
  ]
