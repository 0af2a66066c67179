(* Multilevel graph partitioning. *)

open Hcv_support
open Hcv_ir
open Hcv_sched

let add = Opcode.make Opcode.Arith Opcode.Int

let chain n =
  let b = Ddg.Builder.create () in
  let prev = ref (Ddg.Builder.add_instr b add) in
  for _ = 2 to n do
    let x = Ddg.Builder.add_instr b add in
    Ddg.Builder.add_edge b !prev x;
    prev := x
  done;
  Ddg.Builder.build b

(* Count of cut flow edges: the canonical min-comm objective. *)
let cut_score ddg a =
  float_of_int
    (List.length
       (List.filter
          (fun (e : Edge.t) ->
            Edge.carries_value e && a.(e.src) <> a.(e.dst))
          (Ddg.edges ddg)))

let test_respects_fixed () =
  let g = chain 10 in
  let fixed = [ (0, 2); (9, 3) ] in
  let r =
    Partition.run ~n_clusters:4 ~ddg:g ~fixed ~score:(cut_score g) ()
  in
  Alcotest.(check int) "node 0 fixed" 2 r.Partition.assignment.(0);
  Alcotest.(check int) "node 9 fixed" 3 r.Partition.assignment.(9)

let test_range () =
  let g = chain 20 in
  let r = Partition.run ~n_clusters:4 ~ddg:g ~score:(cut_score g) () in
  Array.iter
    (fun c -> if c < 0 || c >= 4 then Alcotest.failf "out of range %d" c)
    r.Partition.assignment

let test_min_cut_on_chain () =
  (* With a pure cut objective and no capacity pressure, a chain ends up
     in one cluster (cut 0). *)
  let g = chain 12 in
  let r = Partition.run ~n_clusters:4 ~ddg:g ~score:(cut_score g) () in
  Alcotest.(check (float 1e-9)) "zero cut" 0.0 r.Partition.score

let test_balance_objective () =
  (* With a balance objective, two independent chains separate. *)
  let b = Ddg.Builder.create () in
  for _ = 1 to 2 do
    let prev = ref (Ddg.Builder.add_instr b add) in
    for _ = 2 to 5 do
      let x = Ddg.Builder.add_instr b add in
      Ddg.Builder.add_edge b !prev x;
      prev := x
    done
  done;
  let g = Ddg.Builder.build b in
  let score a =
    let counts = Array.make 2 0 in
    Array.iter (fun c -> counts.(c) <- counts.(c) + 1) a;
    (* imbalance plus cut *)
    float_of_int (abs (counts.(0) - counts.(1))) +. cut_score g a
  in
  let r = Partition.run ~n_clusters:2 ~ddg:g ~score () in
  Alcotest.(check (float 1e-9)) "balanced, no cut" 0.0 r.Partition.score

let test_groups_stay_together () =
  (* Two groups and a pathological score that rewards splitting a
     group's members would still start with groups whole; with a neutral
     score, groups remain whole. *)
  let g = chain 8 in
  let groups = [ [ 0; 1; 2 ]; [ 5; 6 ] ] in
  let r =
    Partition.run ~n_clusters:4 ~ddg:g ~groups ~score:(cut_score g) ()
  in
  let a = r.Partition.assignment in
  Alcotest.(check bool) "group 1 together" true (a.(0) = a.(1) && a.(1) = a.(2));
  Alcotest.(check bool) "group 2 together" true (a.(5) = a.(6))

let test_group_overlap_rejected () =
  let g = chain 4 in
  Alcotest.check_raises "overlap"
    (Invalid_argument "Partition.run: groups overlap") (fun () ->
      ignore
        (Partition.run ~n_clusters:2 ~ddg:g
           ~groups:[ [ 0; 1 ]; [ 1; 2 ] ]
           ~score:(cut_score g) ()))

let test_fixed_validation () =
  let g = chain 4 in
  Alcotest.check_raises "bad cluster"
    (Invalid_argument "Partition.run: fixed cluster out of range") (fun () ->
      ignore
        (Partition.run ~n_clusters:2 ~ddg:g ~fixed:[ (0, 7) ]
           ~score:(cut_score g) ()))

let test_empty_graph () =
  let g = Ddg.Builder.build (Ddg.Builder.create ()) in
  let r = Partition.run ~n_clusters:4 ~ddg:g ~score:(fun _ -> 0.0) () in
  Alcotest.(check int) "empty" 0 (Array.length r.Partition.assignment)

let prop_random_valid =
  let gen =
    QCheck.make
      (QCheck.Gen.map
         (fun seed ->
           let rng = Rng.create seed in
           let n = 1 + Rng.int rng 25 in
           let b = Ddg.Builder.create () in
           for _ = 1 to n do
             ignore (Ddg.Builder.add_instr b add)
           done;
           for dst = 1 to n - 1 do
             if Rng.chance rng 0.7 then
               Ddg.Builder.add_edge b (Rng.int rng dst) dst
           done;
           let g = Ddg.Builder.build b in
           let fixed = if n > 2 then [ (0, 0); (n - 1, 1) ] else [] in
           (g, fixed))
         QCheck.Gen.int)
  in
  QCheck.Test.make ~name:"random graphs partition validly" ~count:60 gen
    (fun (g, fixed) ->
      let r =
        Partition.run ~n_clusters:3 ~ddg:g ~fixed ~score:(cut_score g) ()
      in
      Array.for_all (fun c -> c >= 0 && c < 3) r.Partition.assignment
      && List.for_all (fun (i, c) -> r.Partition.assignment.(i) = c) fixed)

let test_initial_even () =
  let g = chain 7 in
  let a = Partition.initial_even ~n_clusters:3 g in
  Array.iter (fun c -> if c < 0 || c >= 3 then Alcotest.fail "range") a

let suite =
  [
    Alcotest.test_case "respects fixed nodes" `Quick test_respects_fixed;
    Alcotest.test_case "assignment in range" `Quick test_range;
    Alcotest.test_case "min cut on a chain" `Quick test_min_cut_on_chain;
    Alcotest.test_case "balance objective" `Quick test_balance_objective;
    Alcotest.test_case "groups stay together" `Quick test_groups_stay_together;
    Alcotest.test_case "group overlap rejected" `Quick
      test_group_overlap_rejected;
    Alcotest.test_case "fixed validation" `Quick test_fixed_validation;
    Alcotest.test_case "empty graph" `Quick test_empty_graph;
    Alcotest.test_case "initial_even" `Quick test_initial_even;
    QCheck_alcotest.to_alcotest prop_random_valid;
  ]

(* ----- Seeded {!Hcv_check.Gen} corpus: the rewritten partitioner
   against the pre-PR implementation kept verbatim in
   {!Partition_reference}.  The rewrite prunes candidates and skips
   converged nodes but gates every committed move on the same exact
   score, so it must never end at a worse final score — and, being the
   perf fix, never at more exact-score evaluations either. ----- *)

let corpus_seeds = List.init 20 (fun i -> 101 + (13 * i))

(* First clocking realisable at or above the configuration's MIT — the
   same snap the production pipeline performs. *)
let clocking_for ~config ddg =
  let mit = Hcv_core.Mit.mit ~config ddg in
  let mit =
    if Q.sign mit <= 0 then Hcv_core.Mit.next_candidate ~config ~after:Q.zero
    else mit
  in
  let rec go it tries =
    if tries > 64 then None
    else
      match Clocking.of_config ~config ~it with
      | Ok c -> Some c
      | Error _ -> go (Hcv_core.Mit.next_candidate ~config ~after:it) (tries + 1)
  in
  go mit 0

(* Instantiate one generated case as a partitioning problem: the real
   {!Pseudo.score} objective, recurrence groups, and a deterministic
   pre-placement pin (first recurrence node, else node 0) so the fixed
   path is exercised on every case.  Cases whose configuration has no
   realisable clocking are skipped — nothing to score there. *)
let with_corpus_case seed f =
  let c = Hcv_check.Gen.case ~seed in
  let loop = c.Hcv_check.Gen.loop in
  let machine = c.Hcv_check.Gen.machine in
  let ddg = loop.Loop.ddg in
  match clocking_for ~config:c.Hcv_check.Gen.config ddg with
  | None -> ()
  | Some clocking ->
    let n_clusters = Hcv_machine.Machine.n_clusters machine in
    let groups =
      List.map
        (fun (r : Recurrence.t) -> r.Recurrence.nodes)
        (Recurrence.find_all ddg)
    in
    let fixed =
      match groups with
      | (i :: _) :: _ -> [ (i, 0) ]
      | _ -> if Ddg.n_instrs ddg > 0 then [ (0, 0) ] else []
    in
    let memo = Builders.memo clocking in
    let score assignment =
      Pseudo.score (Pseudo.estimate ~memo ~machine ~loop ~assignment ())
    in
    f ~seed ~ddg ~n_clusters ~fixed ~groups ~score

let test_corpus_dominance () =
  let ran = ref 0 in
  List.iter
    (fun seed ->
      with_corpus_case seed
        (fun ~seed ~ddg ~n_clusters ~fixed ~groups ~score ->
          incr ran;
          let ev_ref = ref 0 and ev_new = ref 0 in
          let r_ref =
            Partition_reference.run ~n_clusters ~ddg ~fixed ~groups
              ~score:(fun a -> incr ev_ref; score a)
              ()
          in
          let r_new =
            Partition.run ~n_clusters ~ddg ~fixed ~groups
              ~score:(fun a -> incr ev_new; score a)
              ()
          in
          if r_new.Partition.score > r_ref.Partition_reference.score then
            Alcotest.failf "seed %d: new score %.1f worse than reference %.1f"
              seed r_new.Partition.score r_ref.Partition_reference.score;
          if !ev_new > !ev_ref then
            Alcotest.failf "seed %d: %d exact evals, reference needed %d" seed
              !ev_new !ev_ref;
          Array.iteri
            (fun i cl ->
              if cl < 0 || cl >= n_clusters then
                Alcotest.failf "seed %d: node %d out of range (%d)" seed i cl)
            r_new.Partition.assignment;
          List.iter
            (fun (i, cl) ->
              if r_new.Partition.assignment.(i) <> cl then
                Alcotest.failf "seed %d: fixed node %d moved to %d" seed i
                  r_new.Partition.assignment.(i))
            fixed))
    corpus_seeds;
  if !ran < 10 then Alcotest.failf "corpus too thin: only %d cases ran" !ran

let test_corpus_deterministic () =
  List.iter
    (fun seed ->
      with_corpus_case seed
        (fun ~seed ~ddg ~n_clusters ~fixed ~groups ~score ->
          let r1 = Partition.run ~n_clusters ~ddg ~fixed ~groups ~score () in
          let hier = Partition.Hier.build ~ddg ~fixed ~groups () in
          (* run = Hier.build + run_hier, and a hierarchy is read-only:
             reusing it must reproduce the same result bit for bit. *)
          let r2 = Partition.run_hier ~n_clusters ~hier ~score () in
          let r3 = Partition.run_hier ~n_clusters ~hier ~score () in
          let eq a b =
            a.Partition.score = b.Partition.score
            && a.Partition.assignment = b.Partition.assignment
          in
          if not (eq r1 r2) then
            Alcotest.failf "seed %d: run <> run_hier over fresh hierarchy" seed;
          if not (eq r2 r3) then
            Alcotest.failf "seed %d: hierarchy reuse changed the result" seed))
    corpus_seeds

(* Drive generated cases through the full heterogeneous scheduler (the
   partitioner's production caller, hierarchy reuse and pruning
   included) and hand every schedule to the lib/check legality oracle.
   Both score modes run: Ed2 exercises the prune-disabled path,
   Schedulability the transfer-delta pruning. *)
let test_corpus_legal () =
  let ctx_for machine =
    let n = Hcv_machine.Machine.n_clusters machine in
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
  in
  let checked = ref 0 in
  List.iter
    (fun seed ->
      let c = Hcv_check.Gen.case ~seed in
      let ctx = ctx_for c.Hcv_check.Gen.machine in
      List.iter
        (fun score_mode ->
          match
            Hcv_core.Hsched.schedule ~ctx ~config:c.Hcv_check.Gen.config
              ~loop:c.Hcv_check.Gen.loop ~score_mode ()
          with
          | Error _ -> () (* unschedulable cases are vetted by the fuzzer *)
          | Ok (sched, _) -> (
            incr checked;
            match Hcv_check.Legal.verify sched with
            | Ok () -> ()
            | Error vs ->
              Alcotest.failf "seed %d: illegal schedule: %s" seed
                (String.concat "; " (Hcv_check.Legal.to_strings vs))))
        [ Hcv_core.Hsched.Ed2; Hcv_core.Hsched.Schedulability ])
    corpus_seeds;
  if !checked < 10 then
    Alcotest.failf "legality corpus too thin: only %d schedules" !checked

let suite =
  suite
  @ [
      Alcotest.test_case "corpus: dominates reference" `Quick
        test_corpus_dominance;
      Alcotest.test_case "corpus: deterministic, hier reusable" `Quick
        test_corpus_deterministic;
      Alcotest.test_case "corpus: schedules legal" `Slow test_corpus_legal;
    ]
