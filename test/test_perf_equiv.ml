(* Equivalence tests for the hot-path data structures of the scheduler
   perf overhaul: the CSR-indexed DDG view, the flat MRT, the bus
   first-free pointer, and the Hsched partition-score memo.  Each
   indexed / cached structure must answer exactly like a
   straightforward reference implementation on seeded random inputs —
   the optimisations are required to be behaviour-preserving. *)

open Hcv_support
open Hcv_ir
open Hcv_machine
open Hcv_sched
open Hcv_core

(* ----- CSR view vs list accessors --------------------------------- *)

let collect iter ddg i =
  let acc = ref [] in
  iter ddg i (fun e -> acc := e :: !acc);
  List.rev !acc

let check_csr name (loop : Loop.t) =
  let ddg = loop.Loop.ddg in
  Alcotest.(check bool)
    (name ^ ": edge_array = edges")
    true
    (Array.to_list (Ddg.edge_array ddg) = Ddg.edges ddg);
  for i = 0 to Ddg.n_instrs ddg - 1 do
    let succs = Ddg.succs ddg i and preds = Ddg.preds ddg i in
    Alcotest.(check bool)
      (Printf.sprintf "%s: iter_succs %d" name i)
      true
      (collect Ddg.iter_succs ddg i = succs);
    Alcotest.(check bool)
      (Printf.sprintf "%s: iter_preds %d" name i)
      true
      (collect Ddg.iter_preds ddg i = preds);
    Alcotest.(check int)
      (Printf.sprintf "%s: out_degree %d" name i)
      (List.length succs) (Ddg.out_degree ddg i);
    Alcotest.(check int)
      (Printf.sprintf "%s: in_degree %d" name i)
      (List.length preds) (Ddg.in_degree ddg i);
    Alcotest.(check bool)
      (Printf.sprintf "%s: fold_succs %d" name i)
      true
      (List.rev (Ddg.fold_succs ddg i (fun acc e -> e :: acc) []) = succs);
    Alcotest.(check bool)
      (Printf.sprintf "%s: fold_preds %d" name i)
      true
      (List.rev (Ddg.fold_preds ddg i (fun acc e -> e :: acc) []) = preds)
  done

let test_csr_fixtures () =
  check_csr "dotprod" (Builders.dotprod ());
  check_csr "recurrence" (Builders.recurrence_loop ());
  check_csr "wide" (Builders.wide_loop ~width:6 ())

let test_csr_random () =
  for seed = 0 to 24 do
    check_csr
      (Printf.sprintf "rand%d" seed)
      (Builders.random_loop ~n:(5 + (seed mod 20)) ~seed ())
  done

(* ----- flat MRT vs a hashtable reference -------------------------- *)

(* The reference implementation mirrors what lib/sched/mrt.ml did
   before the flat rewrite: hashtable-keyed per-slot occupancy
   counters. *)
let mrt_replay ~seed ~machine =
  let rng = Rng.create seed in
  let ii = 2 + Rng.int rng 6 in
  let clocking = Clocking.homogeneous ~n_clusters:4 ~ii ~cycle_time:Q.one in
  let mrt = Mrt.create machine clocking in
  let used : (int * Opcode.fu_kind * int, int) Hashtbl.t =
    Hashtbl.create 64
  in
  let get k = Option.value ~default:0 (Hashtbl.find_opt used k) in
  let bus_used = Array.make ii 0 in
  let buses = machine.Machine.icn.Icn.buses in
  let cap c kind = Cluster.fu_count (Machine.cluster machine c) kind in
  for step = 0 to 799 do
    let c = Rng.int rng 4 in
    let kind = Rng.pick rng Opcode.all_fu_kinds in
    let cycle = Rng.int rng (4 * ii) in
    let slot = cycle mod ii in
    let ctx = Printf.sprintf "seed %d step %d" seed step in
    match Rng.int rng 4 with
    | 0 ->
      Alcotest.(check bool)
        (ctx ^ ": fu_available")
        (get (c, kind, slot) < cap c kind)
        (Mrt.fu_available mrt ~cluster:c ~kind ~cycle)
    | 1 ->
      if Mrt.fu_available mrt ~cluster:c ~kind ~cycle then begin
        Mrt.fu_reserve mrt ~cluster:c ~kind ~cycle;
        Hashtbl.replace used (c, kind, slot) (get (c, kind, slot) + 1)
      end
    | 2 ->
      if get (c, kind, slot) > 0 then begin
        Mrt.fu_release mrt ~cluster:c ~kind ~cycle;
        Hashtbl.replace used (c, kind, slot) (get (c, kind, slot) - 1)
      end;
      Alcotest.(check int)
        (ctx ^ ": fu_used")
        (get (c, kind, slot))
        (Mrt.fu_used mrt ~cluster:c ~kind ~slot)
    | _ -> (
      (* Bus traffic plus a first-free query checked against a naive
         scan over the reference occupancy. *)
      (match Rng.int rng 3 with
      | 0 ->
        Alcotest.(check bool)
          (ctx ^ ": bus_available")
          (bus_used.(slot) < buses)
          (Mrt.bus_available mrt ~cycle)
      | 1 ->
        if Mrt.bus_available mrt ~cycle then begin
          Mrt.bus_reserve mrt ~cycle;
          bus_used.(slot) <- bus_used.(slot) + 1
        end
      | _ ->
        if bus_used.(slot) > 0 then begin
          Mrt.bus_release mrt ~cycle;
          bus_used.(slot) <- bus_used.(slot) - 1
        end);
      let earliest = Rng.int_in rng (-2) (2 * ii) in
      let latest = earliest + Rng.int rng (2 * ii) in
      let naive =
        let rec scan c =
          if c > latest then None
          else if bus_used.(c mod ii) < buses then Some c
          else scan (c + 1)
        in
        scan (max 0 earliest)
      in
      let b = Mrt.bus_first_free mrt ~earliest ~latest in
      Alcotest.(check (option int))
        (ctx ^ ": bus_first_free")
        naive
        (if b < 0 then None else Some b))
  done

let test_mrt_reference () =
  for seed = 100 to 111 do
    mrt_replay ~seed ~machine:Builders.machine_1bus;
    mrt_replay ~seed:(seed + 1000) ~machine:Builders.machine_2bus
  done

(* ----- score memo never changes Hsched output --------------------- *)

(* A throwaway model context (scoring only compares candidates). *)
let ctx =
  let act =
    Hcv_energy.Activity.make ~exec_time_ns:1e6
      ~per_cluster_ins_energy:[| 100.; 100.; 100.; 100. |]
      ~n_comms:100. ~n_mem:100.
  in
  Hcv_energy.Model.ctx ~params:Hcv_energy.Params.default
    ~units:
      (Hcv_energy.Units.of_reference ~params:Hcv_energy.Params.default
         ~n_clusters:4 act)
    ()

let random_config rng machine =
  let fast = Rng.pick rng Presets.fast_factors in
  let slow = Rng.pick rng Presets.slow_factors in
  let fast_ct = Q.mul Presets.reference_cycle_time fast in
  let slow_ct = Q.mul fast_ct slow in
  let n_fast = 1 + Rng.int rng 3 in
  let pt ct = { Opconfig.cycle_time = ct; vdd = 1.0 } in
  Opconfig.make ~machine
    ~cluster_points:
      (Array.init 4 (fun i -> pt (if i < n_fast then fast_ct else slow_ct)))
    ~icn_point:(pt fast_ct) ~cache_point:(pt fast_ct)

let prop_score_memo_equiv =
  QCheck.Test.make ~name:"score memo preserves Hsched.schedule" ~count:25
    (QCheck.make QCheck.Gen.int) (fun qseed ->
      let rng = Rng.create qseed in
      let machine = Builders.machine_1bus in
      let loop = Builders.random_loop ~n:(5 + Rng.int rng 10) ~seed:qseed () in
      let config = random_config rng machine in
      let max_tries = 1 + Rng.int rng 8 in
      let seed = Rng.int rng 5 in
      let run score_memo =
        Hsched.schedule ~ctx ~config ~loop ~max_tries ~seed ~score_memo ()
      in
      match (run true, run false) with
      | Error a, Error b -> a = b
      | Ok (sa, ta), Ok (sb, tb) ->
        sa.Schedule.placements = sb.Schedule.placements
        && sa.Schedule.transfers = sb.Schedule.transfers
        && ta = tb
      | _ -> false)

(* ----- pseudo-schedule fixtures: chosen slots unchanged ----------- *)

let slots (s : Schedule.t) =
  let places =
    Array.to_list s.Schedule.placements
    |> List.mapi (fun i (p : Schedule.placement) ->
           Printf.sprintf "%d:%d@%d" i p.cluster p.cycle)
    |> String.concat " "
  in
  let comms =
    List.map
      (fun (t : Schedule.transfer) ->
        Printf.sprintf "%d>%d@%d" t.src t.dst_cluster t.bus_cycle)
      s.Schedule.transfers
    |> String.concat " "
  in
  places ^ (if comms = "" then "" else " | " ^ comms)

let pseudo_slots ~machine ~ii loop assignment =
  let clocking = Clocking.homogeneous ~n_clusters:4 ~ii ~cycle_time:Q.one in
  slots
    (Pseudo.estimate ~memo:(Builders.memo clocking) ~machine ~loop ~assignment ())
      .Pseudo.schedule

let test_pseudo_fixture_slots () =
  let machine = Builders.machine_1bus in
  let dot = Builders.dotprod () in
  Alcotest.(check string)
    "dotprod slots" "0:0@0 1:0@1 2:0@3 3:0@10"
    (pseudo_slots ~machine ~ii:6 dot
       (Array.make (Ddg.n_instrs dot.Loop.ddg) 0));
  Alcotest.(check string)
    "dotprod split slots" "0:0@0 1:1@0 2:2@5 3:3@13 | 0>2@3 1>2@4 2>3@12"
    (pseudo_slots ~machine ~ii:6 dot [| 0; 1; 2; 3 |]);
  let wide = Builders.wide_loop ~width:4 () in
  Alcotest.(check string)
    "wide slots"
    "0:0@0 1:0@2 2:0@5 3:1@0 4:1@2 5:1@5 6:2@0 7:2@2 8:2@5 9:3@0 10:3@2 11:3@5"
    (pseudo_slots ~machine ~ii:4 wide
       (Partition.initial_even ~n_clusters:4 wide.Loop.ddg));
  let rc = Builders.recurrence_loop () in
  Alcotest.(check string)
    "recurrence slots"
    "0:0@0 1:3@5 2:1@15 3:1@0 4:2@0 5:0@6 6:2@11 | 0>3@4 1>1@14 3>0@3 4>0@5"
    (pseudo_slots ~machine ~ii:4 rc
       (Partition.initial_even ~n_clusters:4 rc.Loop.ddg))

(* The fixtures above run at one tick per ns, where a mis-scaled tick
   conversion cannot show.  These run on heterogeneous paper-machine
   configurations at fractional ITs — cycle times of 23/24 and 23/16 ns
   (48 ticks per ns), 37/30 and 37/20 ns (60), 53/48 and 53/40 ns
   (240) — and at a long IT of 90 ns with four domains at II 89, 83, 79
   and 73 (89 * 83 * 79 * 73 ticks per ns, so IT is 3,834,074,610
   ticks, past 2^31).  They pin the estimator's slots, transfers,
   iteration length and register verdict plus the slot scheduler's
   answer, as recorded with the exact-rational schedulers. *)

(* The cluster domains at [cts] ns, the ICN and cache with cluster 0. *)
let hetero_clocking ?(registers = 16) ~buses ~cts ~it () =
  let machine =
    Machine.make ~name:"hetero-fixture"
      ~clusters:
        (Array.init 4 (fun _ -> { Cluster.paper with Cluster.registers }))
      ~icn:(Icn.make ~buses ()) ()
  in
  let pt ct = { Opconfig.cycle_time = ct; vdd = 1.0 } in
  let config =
    Opconfig.make ~machine ~cluster_points:(Array.map pt cts)
      ~icn_point:(pt cts.(0)) ~cache_point:(pt cts.(0))
  in
  (machine, Result.get_ok (Clocking.of_config ~config ~it))

(* Clusters below [n_fast] at [fast] times the reference cycle time,
   the others [slow] times slower still. *)
let fast_slow ~fast ~slow ~n_fast =
  let fast_ct = Q.mul Presets.reference_cycle_time fast in
  Array.init 4 (fun i -> if i < n_fast then fast_ct else Q.mul fast_ct slow)

(* Cycle times whose highest grid frequencies give II 89, 83, 79 and 73
   at IT = 90 ns. *)
let long_it_cts = [| Q.make 100 99; Q.make 100 93; Q.make 25 22; Q.make 200 163 |]

let hetero_clockings =
  [
    ( "1bus",
      hetero_clocking ~buses:1
        ~cts:(fast_slow ~fast:(Q.make 19 20) ~slow:(Q.make 4 3) ~n_fast:2)
        ~it:(Q.make 23 4) () );
    ( "2bus",
      hetero_clocking ~buses:2
        ~cts:(fast_slow ~fast:(Q.make 11 10) ~slow:(Q.make 3 2) ~n_fast:1)
        ~it:(Q.make 37 5) () );
    ( "1bus-2reg",
      hetero_clocking ~registers:2 ~buses:1
        ~cts:(fast_slow ~fast:(Q.make 19 20) ~slow:(Q.make 4 3) ~n_fast:2)
        ~it:(Q.make 23 4) () );
    ( "1bus-wide",
      hetero_clocking ~buses:1
        ~cts:(fast_slow ~fast:(Q.make 21 20) ~slow:(Q.make 5 4) ~n_fast:3)
        ~it:(Q.make 53 4) () );
    ("long-it", hetero_clocking ~buses:1 ~cts:long_it_cts ~it:(Q.of_int 90) ());
    ( "long-it-2bus",
      hetero_clocking ~buses:2 ~cts:long_it_cts ~it:(Q.of_int 90) () );
    ( "long-it-2reg",
      hetero_clocking ~registers:2 ~buses:1 ~cts:long_it_cts
        ~it:(Q.of_int 90) () );
  ]

let fixture_loops =
  [
    ("dotprod", Builders.dotprod ());
    ("recurrence", Builders.recurrence_loop ());
    ("wide", Builders.wide_loop ~width:4 ());
    ("random", Builders.random_loop ~n:12 ~seed:5 ());
    ("random16", Builders.random_loop ~n:16 ~seed:9 ());
  ]

(* [even] spreads instructions round-robin; [fast-slow] puts two in
   three on the fast clusters 0 and 1 and the rest on slow cluster 3. *)
let fixture_assignment name (loop : Loop.t) =
  let n = Ddg.n_instrs loop.Loop.ddg in
  match name with
  | "even" -> Partition.initial_even ~n_clusters:4 loop.Loop.ddg
  | _ -> Array.init n (fun i -> if i mod 3 = 2 then 3 else i mod 2)

let hetero_fixtures =
  [
    ( "1bus", "dotprod", "fast-slow",
      "0:0@0 1:1@0 2:3@4 3:1@18 | 0>3@3 1>3@4 2>1@17 ; len=161/8 "
      ^ "regs=true",
      "0:0@0 1:1@0 2:3@4 3:1@18 | 0>3@3 1>3@4 2>1@17" );
    ( "1bus", "recurrence", "even",
      "0:0@0 1:3@4 2:1@19 3:1@0 4:2@0 5:0@7 6:2@10 | 0>3@4 1>1@18 "
      ^ "3>0@3 4>0@5 5>2@13 ; len=253/12 regs=true",
      "error recurrence cannot meet the initiation time" );
    ( "1bus", "random", "fast-slow",
      "0:0@0 1:1@0 2:3@0 3:1@5 4:0@8 5:3@20 6:0@1 7:1@5 8:3@2 9:1@9 "
      ^ "10:0@3 11:3@2 | 1>0@3 2>1@4 3>0@7 4>3@29 6>1@8 ; len=483/16 "
      ^ "regs=true",
      "0:0@2 1:1@0 2:3@0 3:1@5 4:0@9 5:3@20 6:0@0 7:1@5 8:3@2 9:1@9 "
      ^ "10:0@5 11:3@2 | 1>0@3 2>1@4 3>0@7 4>3@29 6>1@8" );
    ( "2bus", "wide", "fast-slow",
      "0:0@0 1:1@3 2:3@8 3:1@0 4:0@5 5:3@7 6:0@1 7:1@4 8:3@9 9:1@1 "
      ^ "10:0@7 11:3@10 | 0>1@3 1>3@11 3>0@4 4>3@9 6>1@4 7>3@12 9>0@6 "
      ^ "10>3@11 ; len=111/5 regs=true",
      "0:0@1 1:1@4 2:3@10 3:1@1 4:0@7 5:3@9 6:0@0 7:1@3 8:3@8 9:1@0 "
      ^ "10:0@5 11:3@7 | 0>1@4 1>3@12 3>0@6 4>3@11 6>1@3 7>3@11 9>0@4 "
      ^ "10>3@9" );
    ( "2bus", "random16", "fast-slow",
      "0:0@0 1:1@2 2:3@10 3:1@9 4:0@21 5:3@0 6:0@21 7:1@3 8:3@12 "
      ^ "9:1@4 10:0@13 11:3@23 12:0@40 13:1@14 14:3@10 15:1@20 | 0>1@2 "
      ^ "1>0@16 1>3@13 2>1@19 3>0@20 5>1@3 7>3@33 8>1@28 9>0@12 9>3@12 "
      ^ "; len=1073/20 regs=true",
      "0:0@0 1:1@3 2:3@13 3:1@9 4:0@20 5:3@0 6:0@20 7:1@2 8:3@15 "
      ^ "9:1@4 10:0@13 11:3@22 12:0@39 13:1@17 14:3@12 15:1@20 | 0>1@2 "
      ^ "1>0@16 1>3@15 2>1@22 3>0@19 4>1@23 5>1@3 7>3@31 8>1@29 9>0@12 "
      ^ "9>3@12" );
    ( "1bus-2reg", "random16", "even",
      "0:0@0 1:2@2 2:1@14 3:2@8 4:0@19 5:1@0 6:1@19 7:3@3 8:2@12 "
      ^ "9:0@5 10:0@8 11:1@34 12:3@26 13:3@12 14:3@12 15:2@15 | 0>2@2 "
      ^ "0>3@3 1>1@13 1>3@17 5>0@4 9>1@12 ; len=161/4 regs=false",
      "error scheduling budget exhausted" );
    ( "1bus-2reg", "random16", "fast-slow",
      "0:0@0 1:1@3 2:3@9 3:1@12 4:0@17 5:3@0 6:0@17 7:1@4 8:3@11 "
      ^ "9:1@5 10:0@12 11:3@18 12:0@35 13:1@17 14:3@8 15:1@23 | 0>1@2 "
      ^ "1>3@10 5>1@3 7>3@25 9>0@11 9>3@12 ; len=851/24 regs=false",
      "error scheduling budget exhausted" );
    ( "1bus-wide", "random", "even",
      "0:0@0 1:1@0 2:2@0 3:1@4 4:1@5 5:3@21 6:3@0 7:2@5 8:3@5 9:2@10 "
      ^ "10:0@3 11:0@7 | 1>2@4 2>0@6 2>1@3 2>3@5 3>0@7 4>3@24 6>2@9 ; "
      ^ "len=583/20 regs=true",
      "0:0@0 1:1@0 2:2@0 3:1@4 4:1@5 5:3@21 6:3@0 7:2@5 8:3@5 9:2@10 "
      ^ "10:0@3 11:0@8 | 1>2@4 2>0@6 2>1@3 2>3@5 3>0@7 4>3@24 6>2@9" );
    ( "1bus-wide", "random16", "even",
      "0:0@0 1:2@3 2:1@11 3:2@9 4:0@21 5:1@0 6:1@25 7:3@4 8:2@14 "
      ^ "9:0@5 10:0@8 11:1@30 12:3@38 13:3@17 14:3@10 15:2@17 | 0>2@2 "
      ^ "0>3@3 1>1@10 1>3@11 2>2@13 2>3@19 3>0@20 3>1@24 5>0@4 5>2@6 "
      ^ "7>1@29 9>1@9 ; len=53 regs=true",
      "error scheduling budget exhausted" );
    ( "1bus-wide", "wide", "fast-slow",
      "0:0@0 1:1@4 2:3@8 3:1@0 4:0@5 5:3@9 6:0@1 7:1@6 8:3@10 9:1@1 "
      ^ "10:0@7 11:3@11 | 0>1@3 1>3@8 3>0@4 4>3@9 6>1@5 7>3@10 9>0@6 "
      ^ "10>3@11 ; len=689/40 regs=true",
      "0:0@1 1:1@7 2:3@11 3:1@1 4:0@6 5:3@10 6:0@0 7:1@5 8:3@9 9:1@0 "
      ^ "10:0@4 11:3@8 | 0>1@6 1>3@11 3>0@5 4>3@10 6>1@4 7>3@9 9>0@3 "
      ^ "10>3@8" );
    ( "long-it", "recurrence", "even",
      "0:0@0 1:3@5 2:1@15 3:1@0 4:2@0 5:0@7 6:2@11 | 0>3@4 1>1@15 2>0@21 "
      ^ "3>0@5 4>0@6 5>2@11 ; len=1980/89 regs=true",
      "0:0@0 1:3@5 2:1@15 3:1@0 4:2@0 5:0@7 6:2@11 | 0>3@4 1>1@15 2>0@21 "
      ^ "3>0@5 4>0@6 5>2@11" );
    ( "long-it", "wide", "fast-slow",
      "0:0@0 1:1@4 2:3@9 3:1@0 4:0@5 5:3@10 6:0@1 7:1@6 8:3@11 9:1@1 "
      ^ "10:0@7 11:3@12 | 0>1@3 1>3@9 3>0@4 4>3@10 6>1@5 7>3@11 9>0@6 "
      ^ "10>3@12 ; len=1260/73 regs=true",
      "0:0@1 1:1@5 2:3@12 3:1@1 4:0@7 5:3@11 6:0@0 7:1@4 8:3@9 9:1@0 "
      ^ "10:0@6 11:3@10 | 0>1@4 1>3@12 3>0@6 4>3@11 6>1@3 7>3@9 9>0@5 "
      ^ "10>3@10" );
    ( "long-it", "random16", "even",
      "0:0@0 1:2@3 2:1@13 3:2@9 4:0@16 5:1@0 6:1@16 7:3@4 8:2@16 9:0@5 "
      ^ "10:0@8 11:1@28 12:3@32 13:3@16 14:3@12 15:2@19 | 0>2@2 0>3@3 "
      ^ "1>1@12 1>3@13 2>2@17 2>3@18 3>0@15 3>1@16 4>2@19 5>0@4 5>2@5 "
      ^ "6>3@38 7>1@28 9>1@9 ; len=3060/73 regs=true",
      "0:0@0 1:2@3 2:1@13 3:2@9 4:0@17 5:1@0 6:1@15 7:3@4 8:2@16 9:0@5 "
      ^ "10:0@8 11:1@28 12:3@32 13:3@16 14:3@12 15:2@19 | 0>2@2 0>3@3 "
      ^ "1>1@12 1>3@13 2>2@17 2>3@18 3>0@16 3>1@15 4>2@20 5>0@4 5>2@5 "
      ^ "6>3@37 7>1@28 9>1@9" );
    ( "long-it-2bus", "recurrence", "even",
      "0:0@0 1:3@5 2:1@15 3:1@0 4:2@0 5:0@6 6:2@10 | 0>3@4 1>1@15 2>0@21 "
      ^ "3>0@4 4>0@5 5>2@10 ; len=1980/89 regs=true",
      "0:0@0 1:3@5 2:1@15 3:1@0 4:2@0 5:0@6 6:2@10 | 0>3@5 1>1@15 2>0@21 "
      ^ "3>0@4 4>0@4 5>2@10" );
    ( "long-it-2reg", "random16", "fast-slow",
      "0:0@0 1:1@3 2:3@10 3:1@9 4:0@15 5:3@0 6:0@15 7:1@4 8:3@11 9:1@5 "
      ^ "10:0@11 11:3@22 12:0@33 13:1@15 14:3@10 15:1@19 | 0>1@2 1>0@13 "
      ^ "1>3@11 2>1@15 3>0@14 4>1@18 5>1@3 7>3@25 8>1@19 9>0@10 9>3@12 "
      ^ "; len=3150/89 regs=false",
      "error register lifetimes exceed the register files" );
  ]

let test_hetero_fixtures () =
  let _, long_it = List.assoc "long-it" hetero_clockings in
  Alcotest.(check int) "long-IT ticks" 3_834_074_610
    (Timing.Memo.it (Builders.memo long_it));
  List.iter
    (fun (cname, lname, aname, want_pseudo, want_slot) ->
      let machine, clocking = List.assoc cname hetero_clockings in
      let loop = List.assoc lname fixture_loops in
      let assignment = fixture_assignment aname loop in
      let memo = Builders.memo clocking in
      let label = String.concat "/" [ cname; lname; aname ] in
      let est = Pseudo.estimate ~memo ~machine ~loop ~assignment () in
      Alcotest.(check string)
        (label ^ " pseudo") want_pseudo
        (Printf.sprintf "%s ; len=%s regs=%b" (slots est.Pseudo.schedule)
           (Q.to_string est.Pseudo.it_length)
           est.Pseudo.regs_ok);
      Alcotest.(check string)
        (label ^ " slot") want_slot
        (match Slot_sched.run ~memo ~machine ~loop ~assignment () with
        | Ok s -> slots s
        | Error f -> "error " ^ Slot_sched.failure_to_string f))
    hetero_fixtures

let suite =
  [
    Alcotest.test_case "CSR view: fixture loops" `Quick test_csr_fixtures;
    Alcotest.test_case "CSR view: random loops" `Quick test_csr_random;
    Alcotest.test_case "flat MRT vs hashtable reference" `Quick
      test_mrt_reference;
    QCheck_alcotest.to_alcotest prop_score_memo_equiv;
    Alcotest.test_case "pseudo fixture slots unchanged" `Quick
      test_pseudo_fixture_slots;
    Alcotest.test_case "heterogeneous fixtures unchanged" `Quick
      test_hetero_fixtures;
  ]
