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

let suite =
  [
    Alcotest.test_case "feasible estimate" `Quick test_feasible_simple;
    Alcotest.test_case "overflow detection" `Quick test_overflow_on_tiny_ii;
    Alcotest.test_case "back-edge violation" `Quick test_back_violation;
    Alcotest.test_case "score ordering" `Quick test_score_ordering;
    Alcotest.test_case "comms counted" `Quick test_comms_counted;
    Alcotest.test_case "ticks match rationals on the Gen corpus" `Quick
      test_ticks_match_rationals;
  ]
