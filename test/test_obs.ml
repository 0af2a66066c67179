(* The observability layer: structured diagnostics, spans/counters, the
   pass combinator's provenance stamping, the zero-cost null sink and
   the determinism of pipeline traces. *)

open Hcv_obs
open Hcv_core
module E = Hcv_explore

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ----- Diag -------------------------------------------------------- *)

let test_diag_render () =
  let d =
    Diag.v ~code:"unschedulable" ~context:[ ("loop", "fft"); ("mit", "3/2") ]
      "no IT under budget"
  in
  Alcotest.(check string)
    "stageless render" "unschedulable: no IT under budget (loop=fft, mit=3/2)"
    (Diag.to_string d);
  let d = Diag.with_stage "schedule" d in
  Alcotest.(check string)
    "staged render"
    "schedule/unschedulable: no IT under budget (loop=fft, mit=3/2)"
    (Diag.to_string d);
  (* The innermost stage wins: a later (outer) stamp is a no-op. *)
  let d = Diag.with_stage "evaluate" d in
  Alcotest.(check (option string)) "innermost stage wins" (Some "schedule")
    (Diag.stage d);
  Alcotest.(check (list (pair string string)))
    "machine-readable fields"
    [
      ("stage", "schedule");
      ("code", "unschedulable");
      ("msg", "no IT under budget");
      ("loop", "fft");
      ("mit", "3/2");
    ]
    (Diag.fields d)

(* ----- spans and counters ------------------------------------------ *)

let test_span_tree () =
  let sp = Trace.root "top" in
  Trace.span sp "left" (fun l ->
      Trace.incr l "n";
      Trace.add l "n" 2;
      Trace.span l "leaf" (fun leaf -> Trace.incr leaf "n"));
  Trace.span sp "right" (fun r -> Trace.add r "m" 5);
  let node = Option.get (Trace.export sp) in
  Alcotest.(check (list string))
    "children attach in completion order" [ "left"; "right" ]
    (List.map (fun (n : Trace.node) -> n.Trace.name) node.Trace.children);
  Alcotest.(check int) "counter sums over the tree" 4
    (Trace.counter_total node "n");
  Alcotest.(check int) "find_all finds nested spans" 1
    (List.length (Trace.find_all node "leaf"))

(* ----- stage provenance -------------------------------------------- *)

(* A failing stage names itself: a dot product on a machine with integer
   units only fails in [profile], under that stage's span, and nothing
   after it runs. *)
let test_pipeline_stamps_stage () =
  let open Hcv_machine in
  let int_only =
    Machine.make ~name:"int-only"
      ~clusters:
        [|
          Cluster.make ~int_fus:2 ~fp_fus:0 ~mem_ports:0 ~registers:16 ();
        |]
      ~icn:(Icn.make ~buses:1 ()) ()
  in
  let sp = Trace.root "run" in
  (match
     Pipeline.run ~obs:sp ~machine:int_only ~name:"dotprod"
       ~loops:[ Builders.dotprod ~trip:10 () ]
       ()
   with
  | Ok _ -> Alcotest.fail "an integer-only machine ran a dot product"
  | Error d ->
    Alcotest.(check string) "code" "machine-incapable" (Diag.code d);
    Alcotest.(check (option string))
      "failing stage stamped" (Some "profile") (Diag.stage d));
  let node = Option.get (Trace.export sp) in
  Alcotest.(check (list string))
    "one span, the failing stage's" [ "stage:profile" ]
    (List.map (fun (n : Trace.node) -> n.Trace.name) node.Trace.children)

(* ----- the null sink is free --------------------------------------- *)

let test_null_sink_zero_alloc () =
  (* Counter traffic against the null span — and fault-point queries
     with no plan armed — must not allocate at all. *)
  assert (not (Hcv_resilience.Inject.armed ()));
  let fired = ref false in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Trace.incr Trace.null "pseudo.evals";
    Trace.add Trace.null "partition.refine_moves" 3;
    Trace.vol Trace.null "worker.busy" 1.0;
    if Hcv_resilience.Inject.fire Hcv_resilience.Inject.Task_raise then
      fired := true
  done;
  let per_op = (Gc.minor_words () -. before) /. 40_000.0 in
  Alcotest.(check bool) "disarmed fault plane never fires" false !fired;
  Alcotest.(check (float 0.0))
    "null counter ops and disarmed fault points allocate nothing" 0.0 per_op

let test_null_sink_free_on_estimate () =
  (* Pseudo.estimate with the (default) null sink allocates exactly what
     it allocates without any observation argument: the instrumentation
     disappears when off. *)
  let loop = Builders.dotprod ~trip:50 () in
  let machine = Hcv_machine.Presets.machine_4c ~buses:1 in
  let config = Hcv_machine.Presets.reference_config machine in
  let clocking =
    Result.get_ok (Hcv_sched.Clocking.of_config ~config ~it:(Hcv_support.Q.of_int 4))
  in
  let memo = Builders.memo clocking in
  let assignment =
    Hcv_sched.Partition.initial_even ~n_clusters:4 loop.Hcv_ir.Loop.ddg
  in
  let words f =
    let b = Gc.minor_words () in
    ignore (f ());
    Gc.minor_words () -. b
  in
  (* The option is boxed outside the measured region, so the comparison
     sees only what the estimator itself allocates. *)
  let call obs () =
    Hcv_sched.Pseudo.estimate ~memo ?obs ~machine ~loop ~assignment ()
  in
  let default_obs = call None in
  let explicit_null = call (Some Trace.null) in
  (* Warm both paths, then compare steady-state allocation. *)
  ignore (default_obs ());
  ignore (explicit_null ());
  Alcotest.(check (float 0.0))
    "null sink adds zero words to the estimate hot path"
    (words default_obs) (words explicit_null)

(* A warm evaluation through the partition score Hsched hands the
   partitioner allocates the same words on a 19- and an 80-instruction
   loop (wupwise's smallest and largest fig7 --quick loops, the even
   assignment at the MIT of the reference configuration): nothing per
   instruction, per edge or per transfer.  The estimate it replaced
   allocated 3,349 and 7,848 minor words on these two loops, plus 642
   major words on the larger. *)
let test_scoring_words_constant () =
  let machine = Hcv_machine.Presets.machine_4c ~buses:1 in
  let config = Hcv_machine.Presets.reference_config machine in
  let ctx =
    let act =
      Hcv_energy.Activity.make ~exec_time_ns:1e6
        ~per_cluster_ins_energy:(Array.make 4 100.) ~n_comms:100. ~n_mem:100.
    in
    Hcv_energy.Model.ctx ~params:Hcv_energy.Params.default
      ~units:
        (Hcv_energy.Units.of_reference ~params:Hcv_energy.Params.default
           ~n_clusters:4 act)
      ()
  in
  let loops =
    Hcv_workload.Specfp.loops ~n_loops:6 ~seed:42
      (Option.get (Hcv_workload.Specfp.find "wupwise"))
  in
  let words name =
    let loop =
      List.find (fun (l : Hcv_ir.Loop.t) -> l.Hcv_ir.Loop.name = name) loops
    in
    let ddg = loop.Hcv_ir.Loop.ddg in
    let it = Mit.mit ~config ddg in
    let clocking = Result.get_ok (Hcv_sched.Clocking.of_config ~config ~it) in
    let memo = Builders.memo clocking in
    let assignment = Hcv_sched.Partition.initial_even ~n_clusters:4 ddg in
    let score = Hsched.partition_scorer ~ctx ~config ~loop ~memo Hsched.Ed2 in
    ignore (score assignment);
    (* [Gc.counters], not [quick_stat]: it also counts the arrays too
       large for the minor heap, allocated in the major heap directly. *)
    let minor = Gc.minor_words () in
    let _, _, major = Gc.counters () in
    ignore (Sys.opaque_identity (score assignment));
    let _, _, major' = Gc.counters () in
    let minor = Gc.minor_words () -. minor in
    let major = major' -. major in
    (Hcv_ir.Ddg.n_instrs ddg, minor, major)
  in
  let n_small, minor_small, major_small = words "wupwise_l2000" in
  let n_large, minor_large, major_large = words "wupwise_l1002" in
  Alcotest.(check (pair int int)) "loop sizes" (19, 80) (n_small, n_large);
  Alcotest.(check (float 0.0)) "minor words independent of loop size"
    minor_small minor_large;
  Alcotest.(check (float 0.0)) "major words independent of loop size"
    major_small major_large

(* ----- trace serialization ----------------------------------------- *)

let test_tracex_roundtrip () =
  let sp = Trace.root ~attrs:[ ("bench", "tiny") ] "cell:tiny" in
  Trace.span sp "stage:profile" (fun s -> Trace.add s "profile.loops" 2);
  Trace.incr sp "hsched.attempts";
  Trace.vol sp "cache.hits" 1.0;
  let node = Option.get (Trace.export sp) in
  let det = E.Tracex.json_of_node ~wall:false node in
  Alcotest.(check bool) "timed view decodes" true
    (Result.is_ok
       (E.Decode.run E.Tracex.node (E.Tracex.json_of_node ~wall:true node)));
  (match E.Decode.run E.Tracex.node det with
  | Error _ -> Alcotest.fail "deterministic view does not decode"
  | Ok node' ->
    Alcotest.(check string) "name survives" node.Trace.name node'.Trace.name;
    Alcotest.(check bool) "volatile stripped from deterministic view" true
      (node'.Trace.volatile = [] && node'.Trace.wall_ns = 0.0);
    (* Round-tripping the deterministic view is the identity. *)
    Alcotest.(check string) "idempotent"
      (E.Jsonx.to_string det)
      (E.Jsonx.to_string (E.Tracex.json_of_node ~wall:false node')));
  (* JSONL: pre-order with explicit depths; timed view appends wall_us
     as a late field so it can be stripped mechanically. *)
  let lines = E.Tracex.jsonl ~wall:false node in
  Alcotest.(check int) "one line per span" 2 (List.length lines);
  Alcotest.(check bool) "depth present" true
    (String.length (List.hd lines) > 0
    && String.sub (List.hd lines) 0 10 = {|{"depth":0|});
  List.iter
    (fun l ->
      Alcotest.(check bool) "deterministic lines carry no wall time" false
        (contains ~sub:"wall_us" l))
    lines

(* ----- pipeline trace: per-stage spans, --jobs and cache invariance - *)

let loops_of (c : Sweep.cell) =
  match c.Sweep.bench with
  | "tiny-dot" -> [ Builders.dotprod ~trip:50 () ]
  | "tiny-mix" ->
    [ Builders.recurrence_loop ~trip:50 (); Builders.wide_loop ~trip:50 () ]
  | b -> Alcotest.failf "unexpected bench %s" b

let cells = [ Sweep.cell "tiny-dot"; Sweep.cell "tiny-mix" ]

let sweep_trace ?cache jobs =
  let engine = E.Engine.create ~jobs ?cache () in
  Fun.protect
    ~finally:(fun () -> E.Engine.shutdown engine)
    (fun () ->
      let sp = Trace.root "fig7" in
      let (_ : Sweep.outcome list) =
        Sweep.run engine ~label:"test" ~obs:sp ~loops_of cells
      in
      Option.get (Trace.export sp))

let det_lines node = E.Tracex.jsonl ~wall:false node

let test_trace_per_stage_spans () =
  let node = sweep_trace 1 in
  List.iter
    (fun stage ->
      Alcotest.(check int)
        (Printf.sprintf "one stage:%s span per cell" stage)
        (List.length cells)
        (List.length (Trace.find_all node ("stage:" ^ stage))))
    Pipeline.stage_names;
  (* The scheduler's counters made it into the tree. *)
  Alcotest.(check bool) "hsched attempts counted" true
    (Trace.counter_total node "hsched.attempts" > 0);
  Alcotest.(check bool) "pseudo evals counted" true
    (Trace.counter_total node "pseudo.evals" > 0)

let test_trace_jobs_invariant () =
  let serial = det_lines (sweep_trace 1) in
  let parallel = det_lines (sweep_trace 4) in
  Alcotest.(check (list string)) "jobs=4 trace equals jobs=1" serial parallel

let test_trace_cache_invariant () =
  let cache = E.Cache.in_memory () in
  let cold = det_lines (sweep_trace ~cache 1) in
  let warm = det_lines (sweep_trace ~cache 1) in
  let s = E.Cache.stats cache in
  Alcotest.(check int) "second run all hits" (List.length cells)
    s.E.Cache.hits;
  Alcotest.(check (list string)) "warm trace equals cold" cold warm

(* ----- metrics table ----------------------------------------------- *)

let test_metrics_table () =
  let node = sweep_trace 1 in
  let rendered =
    Format.asprintf "%a" Hcv_obs.Metrics.print node
  in
  List.iter
    (fun stage ->
      Alcotest.(check bool)
        (Printf.sprintf "table mentions stage:%s" stage)
        true
        (contains ~sub:("stage:" ^ stage) rendered))
    Pipeline.stage_names

let suite =
  [
    Alcotest.test_case "diag rendering and provenance" `Quick test_diag_render;
    Alcotest.test_case "span tree and counters" `Quick test_span_tree;
    Alcotest.test_case "pipeline stamps the failing stage" `Quick
      test_pipeline_stamps_stage;
    Alcotest.test_case "null sink allocates nothing" `Quick
      test_null_sink_zero_alloc;
    Alcotest.test_case "null sink free on Pseudo.estimate" `Quick
      test_null_sink_free_on_estimate;
    Alcotest.test_case "partition scoring words independent of loop size"
      `Quick test_scoring_words_constant;
    Alcotest.test_case "trace serialization round-trips" `Quick
      test_tracex_roundtrip;
    Alcotest.test_case "a span per paper stage" `Slow
      test_trace_per_stage_spans;
    Alcotest.test_case "trace invariant under --jobs" `Slow
      test_trace_jobs_invariant;
    Alcotest.test_case "trace invariant under cache state" `Slow
      test_trace_cache_invariant;
    Alcotest.test_case "metrics table renders every stage" `Slow
      test_metrics_table;
  ]
