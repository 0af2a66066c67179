(* The shared multi-clock timing rules. *)

open Hcv_support
open Hcv_ir
open Hcv_machine
open Hcv_sched

let q = Alcotest.testable Q.pp Q.equal

let fadd = Instr.make ~id:0 ~name:"a" ~op:(Opcode.make Opcode.Arith Opcode.Fp)
let ld = Instr.make ~id:1 ~name:"l" ~op:(Opcode.make Opcode.Memory Opcode.Fp)

(* Heterogeneous clocking: cluster 0 at 1 ns, cluster 1 at 3/2 ns, ICN
   and cache at 1 ns, IT = 6. *)
let clocking =
  {
    Clocking.it = Q.of_int 6;
    cluster_ii = [| 6; 4 |];
    cluster_ct = [| Q.one; Q.make 3 2 |];
    icn_ii = 6;
    icn_ct = Q.one;
    cache_ii = 6;
    cache_ct = Q.one;
  }

(* The same clocking in integer ticks: D = 2 ticks per ns. *)
let memo = Result.get_ok (Timing.Memo.create clocking)
let ns ticks = Timing.Memo.to_ns memo ticks
let ticks t = Q.num (Q.mul_int t 2)

let test_start_and_def () =
  Alcotest.(check q) "start c1 cycle 2" (Q.of_int 3)
    (Timing.start_time clocking ~cluster:1 ~cycle:2);
  (* fp add latency 3 on the 3/2 ns cluster: def at 3 + 4.5. *)
  Alcotest.(check q) "def" (Q.make 15 2)
    (Timing.def_time clocking ~cluster:1 ~cycle:2 fadd);
  let start = Timing.Memo.start_time memo ~cluster:1 ~cycle:2 in
  Alcotest.(check int) "start in ticks" 6 start;
  Alcotest.(check q) "def in ticks" (Q.make 15 2)
    (ns (start + Timing.Memo.def_offset memo ~cluster:1 fadd))

let test_memory_effective_ct () =
  (* Memory ops advance at max(cluster, cache) cycle time.  Cache at
     1 ns < cluster at 3/2 ns: the cluster dominates. *)
  Alcotest.(check q) "mem eff ct" (Q.make 3 2)
    (Timing.eff_ct clocking ~cluster:1 ld);
  Alcotest.(check q) "mem eff ct in ticks" (Q.make 3 2)
    (ns (Timing.Memo.lat_offset memo ~cluster:1 Opcode.Mem_port 1));
  (* A slower cache would dominate instead. *)
  let slow_cache = { clocking with Clocking.cache_ct = Q.of_int 2 } in
  Alcotest.(check q) "slow cache dominates" (Q.of_int 2)
    (Timing.eff_ct slow_cache ~cluster:1 ld);
  let slow_memo = Result.get_ok (Timing.Memo.create slow_cache) in
  Alcotest.(check q) "slow cache dominates in ticks" (Q.of_int 4)
    (Timing.Memo.to_ns slow_memo (Timing.Memo.def_offset slow_memo ~cluster:1 ld));
  (* Beyond the tabulated latencies the offset is still eff_ct * lat. *)
  Alcotest.(check q) "untabulated latency" (Q.of_int 200)
    (Timing.Memo.to_ns slow_memo
       (Timing.Memo.lat_offset slow_memo ~cluster:1 Opcode.Mem_port 100));
  (* Non-memory ops never see the cache clock. *)
  Alcotest.(check q) "fp unaffected" (Q.make 3 2)
    (Timing.eff_ct slow_cache ~cluster:1 fadd)

let test_bus_windows () =
  (* Value defined at t=3: one sync cycle, so the earliest bus cycle
     starts at ceil((3+1)/1) = 4. *)
  Alcotest.(check int) "earliest bus" 4
    (Timing.earliest_bus_cycle clocking ~def_time:(Q.of_int 3));
  (* Need by t=9 with buslat 1: latest departure at floor(9/1) - 1. *)
  Alcotest.(check int) "latest bus" 8
    (Timing.latest_bus_cycle clocking ~buslat:1 ~need:(Q.of_int 9));
  Alcotest.(check q) "arrival" (Q.of_int 6)
    (Timing.bus_arrival clocking ~buslat:1 ~bus_cycle:5);
  Alcotest.(check int) "earliest bus in ticks" 4
    (Timing.Memo.earliest_bus_cycle memo ~def_time:(ticks (Q.of_int 3)));
  Alcotest.(check int) "latest bus in ticks" 8
    (Timing.Memo.latest_bus_cycle memo ~buslat:1 ~need:(ticks (Q.of_int 9)));
  Alcotest.(check q) "arrival in ticks" (Q.of_int 6)
    (ns (Timing.Memo.bus_arrival memo ~buslat:1 ~bus_cycle:5))

let test_earliest_cycle () =
  Alcotest.(check int) "exact boundary" 2
    (Timing.earliest_cycle clocking ~cluster:1 ~ready:(Q.of_int 3));
  Alcotest.(check int) "round up" 3
    (Timing.earliest_cycle clocking ~cluster:1 ~ready:(Q.make 7 2));
  Alcotest.(check int) "negative clamps" 0
    (Timing.earliest_cycle clocking ~cluster:0 ~ready:(Q.of_int (-4)));
  List.iter
    (fun (cluster, ready, cycle) ->
      Alcotest.(check int) "earliest cycle in ticks" cycle
        (Timing.Memo.earliest_cycle memo ~cluster ~ready:(ticks ready)))
    [ (1, Q.of_int 3, 2); (1, Q.make 7 2, 3); (0, Q.of_int (-4), 0) ]

let test_dep_ready () =
  (* distance 2 rewinds two ITs: a value defined at 7 ns (fp add issued
     at cycle 4 of the 1 ns cluster) is ready for iteration 2 at -5 ns. *)
  let def =
    Timing.Memo.start_time memo ~cluster:0 ~cycle:4
    + Timing.Memo.def_offset memo ~cluster:0 fadd
  in
  Alcotest.(check int) "IT in ticks" 12 (Timing.Memo.it memo);
  Alcotest.(check q) "same-cluster ready" (Q.of_int (-5))
    (ns (def - (2 * Timing.Memo.it memo)))

(* Clockings outside the integer time base get the structured error —
   never a wrapped tick count or an exception. *)
let test_tick_range () =
  let hand ~it cts =
    {
      Clocking.it;
      cluster_ii = Array.map (fun _ -> 1) cts;
      cluster_ct = cts;
      icn_ii = 1;
      icn_ct = cts.(0);
      cache_ii = 1;
      cache_ct = cts.(0);
    }
  in
  let code c =
    match Timing.Memo.create c with
    | Ok _ -> "ok"
    | Error d -> Hcv_obs.Diag.code d
  in
  let max = Timing.Memo.max_ticks in
  Alcotest.(check string) "IT at the bound" "ok"
    (code (hand ~it:(Q.of_int max) [| Q.one |]));
  Alcotest.(check string) "IT past the bound" "tick-range"
    (code (hand ~it:(Q.of_int (max + 1)) [| Q.one |]));
  (* Coprime denominators whose lcm passes the bound (and whose naive
     product would wrap the 63-bit range). *)
  Alcotest.(check string) "lcm past the bound" "tick-range"
    (code
       (hand ~it:Q.one
          [| Q.make 1 65_537; Q.make 1 65_539; Q.make 1 65_543 |]));
  Alcotest.(check string) "lcm past max_int" "tick-range"
    (code
       (hand ~it:Q.one
          [|
            Q.make 1 1_000_000_007; Q.make 1 998_244_353;
            Q.make 1 1_000_000_009;
          |]));
  Alcotest.(check string) "zero cycle time" "tick-range"
    (code (hand ~it:Q.one [| Q.zero |]));
  (* The schedulers surface it as their own structured error. *)
  let loop = Hcv_check.Gen.dotprod () in
  let machine = Presets.machine_4c ~buses:1 in
  let cycle_time = Q.make 1 (max + 11) in
  (match Homo.schedule ~machine ~cycle_time ~loop () with
  | Ok _ -> Alcotest.fail "homogeneous schedule past the tick bound"
  | Error msg ->
    Alcotest.(check bool) ("homo names the cause: " ^ msg) true
      (String.starts_with ~prefix:"dotprod: tick-range" msg));
  let config = Opconfig.homogeneous ~machine ~cycle_time ~vdd:1.0 () in
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
  match Hcv_core.Hsched.schedule ~ctx ~config ~loop () with
  | Ok _ -> Alcotest.fail "heterogeneous schedule past the tick bound"
  | Error d ->
    Alcotest.(check string) "hsched code" "tick-range" (Hcv_obs.Diag.code d)

let suite =
  [
    Alcotest.test_case "start/def times" `Quick test_start_and_def;
    Alcotest.test_case "memory effective cycle time" `Quick
      test_memory_effective_ct;
    Alcotest.test_case "bus windows" `Quick test_bus_windows;
    Alcotest.test_case "earliest cycle" `Quick test_earliest_cycle;
    Alcotest.test_case "dependence rewind" `Quick test_dep_ready;
    Alcotest.test_case "tick base out of range" `Quick test_tick_range;
  ]
