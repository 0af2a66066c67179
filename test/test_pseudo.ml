(* Pseudo-schedules: cheap estimates used during refinement. *)

open Hcv_support
open Hcv_ir
open Hcv_machine
open Hcv_sched

let machine = Presets.machine_4c ~buses:1

let test_feasible_simple () =
  let loop = Builders.dotprod () in
  let clocking = Clocking.homogeneous ~n_clusters:4 ~ii:6 ~cycle_time:Q.one in
  let assignment = Array.make (Ddg.n_instrs loop.Loop.ddg) 0 in
  let est = Pseudo.estimate ~memo:(Builders.memo clocking) ~machine ~loop ~assignment () in
  Alcotest.(check bool) "feasible" true (Pseudo.feasible est);
  Alcotest.(check int) "no comms on one cluster" 0
    (Schedule.n_comms est.Pseudo.schedule)

let test_overflow_on_tiny_ii () =
  (* 8 memory ops on one cluster (1 port) at II=2: overflow. *)
  let loop = Builders.wide_loop ~width:4 () in
  let clocking = Clocking.homogeneous ~n_clusters:4 ~ii:2 ~cycle_time:Q.one in
  let assignment = Array.make (Ddg.n_instrs loop.Loop.ddg) 0 in
  let est = Pseudo.estimate ~memo:(Builders.memo clocking) ~machine ~loop ~assignment () in
  Alcotest.(check bool) "overflow" true (est.Pseudo.overflow > 0);
  Alcotest.(check bool) "infeasible" false (Pseudo.feasible est)

let test_back_violation () =
  (* Recurrence latency 12 at II=2: the greedy placement cannot satisfy
     the back edge. *)
  let b = Ddg.Builder.create () in
  let a = Ddg.Builder.add_instr b (Opcode.make Opcode.Mult Opcode.Fp) in
  let c = Ddg.Builder.add_instr b (Opcode.make Opcode.Mult Opcode.Fp) in
  Ddg.Builder.add_edge b a c;
  Ddg.Builder.add_edge b ~distance:1 c a;
  let loop = Loop.make ~name:"r" (Ddg.Builder.build b) in
  let clocking = Clocking.homogeneous ~n_clusters:4 ~ii:2 ~cycle_time:Q.one in
  let est =
    Pseudo.estimate ~memo:(Builders.memo clocking) ~machine ~loop ~assignment:[| 0; 0 |] ()
  in
  Alcotest.(check bool) "back violation" true (est.Pseudo.back_violations > 0)

let test_score_ordering () =
  (* Feasible estimates score strictly below infeasible ones. *)
  let loop = Builders.wide_loop ~width:4 () in
  let n = Ddg.n_instrs loop.Loop.ddg in
  let tight = Clocking.homogeneous ~n_clusters:4 ~ii:2 ~cycle_time:Q.one in
  let loose = Clocking.homogeneous ~n_clusters:4 ~ii:8 ~cycle_time:Q.one in
  let bad =
    Pseudo.estimate ~memo:(Builders.memo tight) ~machine ~loop
      ~assignment:(Array.make n 0) ()
  in
  let good =
    Pseudo.estimate ~memo:(Builders.memo loose) ~machine ~loop
      ~assignment:(Partition.initial_even ~n_clusters:4 loop.Loop.ddg)
      ()
  in
  Alcotest.(check bool) "ordering" true (Pseudo.score good < Pseudo.score bad)

let test_comms_counted () =
  (* A chain split across clusters must count transfers. *)
  let b = Ddg.Builder.create () in
  let x = Ddg.Builder.add_instr b (Opcode.make Opcode.Arith Opcode.Fp) in
  let y = Ddg.Builder.add_instr b (Opcode.make Opcode.Arith Opcode.Fp) in
  Ddg.Builder.add_edge b x y;
  let loop = Loop.make ~name:"xy" (Ddg.Builder.build b) in
  let clocking = Clocking.homogeneous ~n_clusters:4 ~ii:4 ~cycle_time:Q.one in
  let est = Pseudo.estimate ~memo:(Builders.memo clocking) ~machine ~loop
      ~assignment:[| 0; 2 |] () in
  Alcotest.(check int) "one comm" 1 (Schedule.n_comms est.Pseudo.schedule)

(* The estimator computes in integer ticks; its iteration length,
   transfer count and register verdict must equal the exact-rational
   re-derivation from its own schedule, over the fuzzer's seeded corpus
   (heterogeneous clockings, capability-asymmetric machines), at the
   first three realisable ITs, for even and random assignments. *)
let test_ticks_match_rationals () =
  let checked = ref 0 in
  for seed = 1 to 60 do
    let c = Hcv_check.Gen.case ~seed in
    let machine = c.Hcv_check.Gen.machine and loop = c.Hcv_check.Gen.loop in
    let config = c.Hcv_check.Gen.config in
    let ddg = loop.Loop.ddg in
    let n_clusters = Machine.n_clusters machine in
    let rng = Rng.create seed in
    let rec clockings it tries acc =
      if tries = 0 || List.length acc = 3 then acc
      else
        let acc =
          match Clocking.of_config ~config ~it with
          | Ok clocking -> clocking :: acc
          | Error _ -> acc
        in
        clockings (Hcv_core.Mit.next_candidate ~config ~after:it) (tries - 1) acc
    in
    List.iter
      (fun clocking ->
        let memo = Result.get_ok (Timing.Memo.create clocking) in
        let assignments =
          Partition.initial_even ~n_clusters ddg
          :: List.init 3 (fun _ ->
                 Array.init (Ddg.n_instrs ddg) (fun _ -> Rng.int rng n_clusters))
        in
        List.iter
          (fun assignment ->
            incr checked;
            let est = Pseudo.estimate ~memo ~machine ~loop ~assignment () in
            let s = est.Pseudo.schedule in
            let it = clocking.Clocking.it in
            let regs_ok =
              Array.for_all2
                (fun span (cl : Cluster.t) ->
                  Q.( <= ) span (Q.mul_int it cl.Cluster.registers))
                (Schedule.lifetimes_ns s) machine.Machine.clusters
            in
            let where = Printf.sprintf "seed %d IT %s" seed (Q.to_string it) in
            Alcotest.(check string) (where ^ " it_length")
              (Q.to_string (Schedule.it_length s))
              (Q.to_string est.Pseudo.it_length);
            Alcotest.(check int) (where ^ " n_comms") (Schedule.n_comms s)
              est.Pseudo.n_comms;
            Alcotest.(check bool) (where ^ " regs_ok") regs_ok est.Pseudo.regs_ok)
          assignments)
      (clockings (Hcv_core.Mit.mit ~config ddg) 16 [])
  done;
  if !checked < 300 then Alcotest.failf "corpus too thin: %d estimates" !checked

(* ----- one reused workspace against fresh estimates ---------------- *)

(* The energy formula as it stood before {!Hcv_energy.Model} folded the
   per-domain factors into coefficients: the reference the scoring
   path's floats must match bit for bit. *)
let parent_energy (ctx : Hcv_energy.Model.ctx) ~config
    (act : Hcv_energy.Activity.t) =
  let open Hcv_energy in
  let factors comp =
    let vdd = Opconfig.vdd config comp in
    match Opconfig.vth ~params:ctx.Model.alpha config comp with
    | None -> Alcotest.fail "unrealisable domain"
    | Some vth ->
      ( Scale.delta ~vdd ~vdd_ref:ctx.Model.vdd_ref,
        Scale.sigma ~vdd ~vth ~vdd_ref:ctx.Model.vdd_ref
          ~vth_ref:ctx.Model.vth_ref () )
  in
  let u = ctx.Model.units in
  let dyn_cluster = ref 0.0 and stat_cluster = ref 0.0 in
  for i = 0 to Machine.n_clusters config.Opconfig.machine - 1 do
    let delta, sigma = factors (Comp.Cluster i) in
    dyn_cluster :=
      !dyn_cluster
      +. (u.Units.e_ins *. delta *. act.Activity.per_cluster_ins_energy.(i));
    stat_cluster :=
      !stat_cluster
      +. (sigma *. u.Units.p_stat_cluster *. act.Activity.exec_time_ns)
  done;
  let delta_icn, sigma_icn = factors Comp.Icn in
  let delta_cache, sigma_cache = factors Comp.Cache in
  let e =
    !dyn_cluster
    +. (u.Units.e_comm *. delta_icn *. act.Activity.n_comms)
    +. (u.Units.e_access *. delta_cache *. act.Activity.n_mem)
    +. !stat_cluster
    +. (sigma_icn *. u.Units.p_stat_icn *. act.Activity.exec_time_ns)
    +. (sigma_cache *. u.Units.p_stat_cache *. act.Activity.exec_time_ns)
  in
  let d = act.Activity.exec_time_ns in
  e *. d *. d

let ctx_for machine =
  let n = Machine.n_clusters machine in
  let act =
    Hcv_energy.Activity.make ~exec_time_ns:1e6
      ~per_cluster_ins_energy:(Array.make n 100.)
      ~n_comms:100. ~n_mem:100.
  in
  Hcv_energy.Model.ctx ~params:Hcv_energy.Params.default
    ~units:
      (Hcv_energy.Units.of_reference ~params:Hcv_energy.Params.default
         ~n_clusters:n act)
    ()

let bits what a b =
  Alcotest.(check int64) what (Int64.bits_of_float a) (Int64.bits_of_float b)

(* On one workspace, evaluate the even assignment, three random ones,
   everything on cluster 0 (which overbooks at the MII) and the even
   one again; every result must equal a fresh estimate's, and both
   scorers Hsched hands the partitioner must give the fresh estimate's
   score bit for bit.  Returns the number of overflowing and of feasible
   results, so a corpus can check it reached both branches. *)
let check_workspace ~where ~ctx ~config ~loop ~memo ~rng =
  let machine = config.Opconfig.machine in
  let ddg = loop.Loop.ddg in
  let n = Ddg.n_instrs ddg and n_clusters = Machine.n_clusters machine in
  let even = Partition.initial_even ~n_clusters ddg in
  let random () = Array.init n (fun _ -> Rng.int rng n_clusters) in
  let ws =
    Pseudo.Workspace.create ~memo ~obs:Hcv_obs.Trace.null ~machine ~loop
  in
  let ed2 = Hcv_core.Hsched.partition_scorer ~ctx ~config ~loop ~memo Ed2 in
  let schedulability =
    Hcv_core.Hsched.partition_scorer ~ctx ~config ~loop ~memo Schedulability
  in
  let overflowing = ref 0 and feasible = ref 0 in
  List.iteri
    (fun k assignment ->
      let what field = Printf.sprintf "%s #%d %s" where k field in
      Pseudo.Workspace.eval ws assignment;
      let got = Pseudo.Workspace.estimate ws in
      let fresh = Pseudo.estimate ~memo ~machine ~loop ~assignment () in
      if fresh.Pseudo.overflow > 0 then incr overflowing;
      Alcotest.(check int) (what "overflow") fresh.Pseudo.overflow
        got.Pseudo.overflow;
      Alcotest.(check int) (what "back_violations")
        fresh.Pseudo.back_violations got.Pseudo.back_violations;
      Alcotest.(check bool) (what "regs_ok") fresh.Pseudo.regs_ok
        got.Pseudo.regs_ok;
      Alcotest.(check int) (what "n_comms") fresh.Pseudo.n_comms
        (Pseudo.Workspace.n_comms ws);
      Alcotest.(check string) (what "it_length")
        (Q.to_string fresh.Pseudo.it_length)
        (Q.to_string (Pseudo.Workspace.it_length ws));
      Alcotest.(check bool) (what "feasible") (Pseudo.feasible fresh)
        (Pseudo.Workspace.feasible ws);
      Alcotest.(check bool) (what "slots") true
        (fresh.Pseudo.schedule.Schedule.placements
        = got.Pseudo.schedule.Schedule.placements);
      Alcotest.(check bool) (what "transfers") true
        (fresh.Pseudo.schedule.Schedule.transfers
        = got.Pseudo.schedule.Schedule.transfers);
      bits (what "workspace score") (Pseudo.score fresh)
        (Pseudo.Workspace.score ws);
      bits (what "schedulability score") (Pseudo.score fresh)
        (schedulability assignment);
      let score = ed2 assignment in
      if Pseudo.feasible fresh then begin
        incr feasible;
        let act =
          Hcv_core.Profile.activity_of_schedule fresh.Pseudo.schedule
            ~trip:loop.Loop.trip
        in
        bits (what "ED2 vs Model.ed2") (Hcv_energy.Model.ed2 ctx ~config act)
          score;
        bits (what "ED2 vs the parent formula") (parent_energy ctx ~config act)
          score
      end
      else bits (what "infeasible ED2") (1e14 +. Pseudo.score fresh) score)
    [ even; random (); random (); random (); Array.make n 0; even ];
  (!overflowing, !feasible)

let first_clocking ~config ddg =
  let rec go it tries =
    if tries = 0 then None
    else
      match Clocking.of_config ~config ~it with
      | Ok clocking -> Some clocking
      | Error _ ->
        go (Hcv_core.Mit.next_candidate ~config ~after:it) (tries - 1)
  in
  go (Hcv_core.Mit.mit ~config ddg) 16

let test_workspace_gen_corpus () =
  let checked = ref 0 and overflowing = ref 0 and feasible = ref 0 in
  for seed = 1 to 60 do
    let c = Hcv_check.Gen.case ~seed in
    let config = c.Hcv_check.Gen.config and loop = c.Hcv_check.Gen.loop in
    match first_clocking ~config loop.Loop.ddg with
    | None -> ()
    | Some clocking ->
      incr checked;
      let o, f =
        check_workspace
          ~where:(Printf.sprintf "seed %d" seed)
          ~ctx:(ctx_for c.Hcv_check.Gen.machine)
          ~config ~loop ~memo:(Builders.memo clocking) ~rng:(Rng.create seed)
      in
      overflowing := !overflowing + o;
      feasible := !feasible + f
  done;
  if !checked < 50 then Alcotest.failf "corpus too thin: %d cases" !checked;
  if !overflowing = 0 || !feasible = 0 then
    Alcotest.failf "one branch unreached: %d overbooked, %d feasible"
      !overflowing !feasible

(* The fig7 --quick population on the reference configuration at its
   MIT: the loops the benchmark's hot path scores. *)
let test_workspace_fig7_population () =
  let machine = Presets.machine_4c ~buses:1 in
  let config = Presets.reference_config machine in
  let ctx = ctx_for machine in
  let overflowing = ref 0 and feasible = ref 0 in
  List.iter
    (fun (bench, loops) ->
      List.iter
        (fun (loop : Loop.t) ->
          let clocking = Option.get (first_clocking ~config loop.Loop.ddg) in
          let o, f =
            check_workspace ~where:loop.Loop.name ~ctx ~config ~loop
              ~memo:(Builders.memo clocking)
              ~rng:(Rng.create (Hashtbl.hash bench))
          in
          overflowing := !overflowing + o;
          feasible := !feasible + f)
        loops)
    (Hcv_workload.Specfp.benchmarks ~n_loops:6 ~seed:42 ());
  if !overflowing = 0 || !feasible = 0 then
    Alcotest.failf "one branch unreached: %d overbooked, %d feasible"
      !overflowing !feasible

let suite =
  [
    Alcotest.test_case "feasible estimate" `Quick test_feasible_simple;
    Alcotest.test_case "overflow detection" `Quick test_overflow_on_tiny_ii;
    Alcotest.test_case "back-edge violation" `Quick test_back_violation;
    Alcotest.test_case "score ordering" `Quick test_score_ordering;
    Alcotest.test_case "comms counted" `Quick test_comms_counted;
    Alcotest.test_case "ticks match rationals on the Gen corpus" `Quick
      test_ticks_match_rationals;
    Alcotest.test_case "reused workspace = fresh estimates (Gen corpus)"
      `Quick test_workspace_gen_corpus;
    Alcotest.test_case "reused workspace = fresh estimates (fig7 quick)"
      `Quick test_workspace_fig7_population;
  ]
