(* The slot scheduler: every produced schedule passes full validation;
   failures are reported, not silently wrong. *)

open Hcv_support
open Hcv_ir
open Hcv_machine
open Hcv_sched

let machine = Presets.machine_4c ~buses:1

let random_loop seed =
  let rng = Rng.create seed in
  let ops =
    [
      Opcode.make Opcode.Arith Opcode.Fp;
      Opcode.make Opcode.Mult Opcode.Fp;
      Opcode.make Opcode.Arith Opcode.Int;
      Opcode.make Opcode.Memory Opcode.Fp;
    ]
  in
  let n = 4 + Rng.int rng 16 in
  let b = Ddg.Builder.create () in
  for _ = 1 to n do
    ignore (Ddg.Builder.add_instr b (Rng.pick rng ops))
  done;
  for dst = 1 to n - 1 do
    if Rng.chance rng 0.8 then Ddg.Builder.add_edge b (Rng.int rng dst) dst;
    if Rng.chance rng 0.15 then
      (* A loop-carried edge (may create a recurrence). *)
      Ddg.Builder.add_edge b ~distance:(1 + Rng.int rng 2) dst (Rng.int rng dst)
  done;
  Loop.make ~name:(Printf.sprintf "rand%d" seed) (Ddg.Builder.build b)

let try_schedule loop ii =
  let clocking = Clocking.homogeneous ~n_clusters:4 ~ii ~cycle_time:Q.one in
  let assignment = Partition.initial_even ~n_clusters:4 loop.Loop.ddg in
  Slot_sched.run ~memo:(Builders.memo clocking) ~machine ~loop ~assignment ()

let prop_schedules_validate =
  QCheck.Test.make ~name:"produced schedules validate" ~count:60
    (QCheck.make QCheck.Gen.int) (fun seed ->
      let loop = random_loop seed in
      let mii = Mii.mii machine loop.Loop.ddg in
      (* Try a few IIs from the MII up; any success must validate. *)
      let rec go ii tries =
        if tries = 0 then true
        else
          match try_schedule loop ii with
          | Ok sched -> Schedule.validate sched = Ok ()
          | Error _ -> go (ii + 1) (tries - 1)
      in
      go mii 12)

let test_positive_cycle_detected () =
  (* A recurrence whose latency exceeds II * distance at this clocking. *)
  let b = Ddg.Builder.create () in
  let a = Ddg.Builder.add_instr b (Opcode.make Opcode.Mult Opcode.Fp) in
  let c = Ddg.Builder.add_instr b (Opcode.make Opcode.Mult Opcode.Fp) in
  Ddg.Builder.add_edge b a c;
  Ddg.Builder.add_edge b ~distance:1 c a;
  let loop = Loop.make ~name:"rec" (Ddg.Builder.build b) in
  (* recMII = 12; try II = 2. *)
  match try_schedule loop 2 with
  | Error Slot_sched.Positive_cycle -> ()
  | Error f -> Alcotest.failf "wrong failure: %s" (Slot_sched.failure_to_string f)
  | Ok _ -> Alcotest.fail "expected Positive_cycle"

let test_impossible_fu () =
  (* Assign an FP op to a cluster... all paper clusters have FP units;
     build an int-only cluster machine instead. *)
  let m2 =
    Machine.make
      ~clusters:
        [|
          Cluster.make ~int_fus:1 ~fp_fus:1 ~mem_ports:1 ~registers:16 ();
          Cluster.make ~int_fus:1 ~fp_fus:0 ~mem_ports:1 ~registers:16 ();
        |]
      ~icn:(Icn.make ~buses:1 ())
      ()
  in
  let b = Ddg.Builder.create () in
  let _ = Ddg.Builder.add_instr b (Opcode.make Opcode.Arith Opcode.Fp) in
  let loop = Loop.make ~name:"fp" (Ddg.Builder.build b) in
  let clocking = Clocking.homogeneous ~n_clusters:2 ~ii:2 ~cycle_time:Q.one in
  (* Force the FP op onto the FP-less cluster. *)
  match Slot_sched.run ~memo:(Builders.memo clocking) ~machine:m2 ~loop
          ~assignment:[| 1 |] () with
  | Error Slot_sched.Budget_exhausted -> ()
  | Error f -> Alcotest.failf "wrong failure: %s" (Slot_sched.failure_to_string f)
  | Ok _ -> Alcotest.fail "cannot schedule FP on an int-only cluster"

let test_deterministic () =
  let loop = random_loop 77 in
  let mii = Mii.mii machine loop.Loop.ddg in
  match (try_schedule loop (mii + 1), try_schedule loop (mii + 1)) with
  | Ok a, Ok b ->
    Alcotest.(check bool) "same placements" true
      (a.Schedule.placements = b.Schedule.placements)
  | _, _ -> ()

let test_cross_cluster_chain () =
  (* A chain forced across two clusters needs transfers; the scheduler
     must produce them. *)
  let b = Ddg.Builder.create () in
  let x = Ddg.Builder.add_instr b (Opcode.make Opcode.Arith Opcode.Fp) in
  let y = Ddg.Builder.add_instr b (Opcode.make Opcode.Arith Opcode.Fp) in
  Ddg.Builder.add_edge b x y;
  let loop = Loop.make ~name:"xy" (Ddg.Builder.build b) in
  let clocking = Clocking.homogeneous ~n_clusters:4 ~ii:4 ~cycle_time:Q.one in
  match Slot_sched.run ~memo:(Builders.memo clocking) ~machine ~loop
          ~assignment:[| 0; 1 |] () with
  | Ok sched ->
    Alcotest.(check int) "one transfer" 1 (Schedule.n_comms sched);
    Alcotest.(check bool) "validates" true (Schedule.validate sched = Ok ())
  | Error f -> Alcotest.failf "failed: %s" (Slot_sched.failure_to_string f)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_schedules_validate;
    Alcotest.test_case "positive cycle detected" `Quick
      test_positive_cycle_detected;
    Alcotest.test_case "impossible FU assignment" `Quick test_impossible_fu;
    Alcotest.test_case "determinism" `Quick test_deterministic;
    Alcotest.test_case "cross-cluster chain" `Quick test_cross_cluster_chain;
  ]
