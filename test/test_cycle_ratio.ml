(* Maximum cycle ratio: the exact recurrence bound. *)

open Hcv_support
open Hcv_ir

let add = Opcode.make Opcode.Arith Opcode.Int

let build edges n =
  let b = Ddg.Builder.create () in
  for _ = 1 to n do
    ignore (Ddg.Builder.add_instr b add)
  done;
  List.iter
    (fun (src, dst, lat, dist) ->
      Ddg.Builder.add_edge b ~latency:lat ~distance:dist src dst)
    edges;
  Ddg.Builder.build b

let all_nodes n = List.init n (fun i -> i)
let q = Alcotest.testable Q.pp Q.equal

let test_simple_self_loop () =
  let g = build [ (0, 0, 3, 1) ] 1 in
  Alcotest.(check (option q)) "ratio 3" (Some (Q.of_int 3))
    (Cycle_ratio.exact_over g (all_nodes 1))

let test_fractional_ratio () =
  (* Cycle of latency 7 spanning 2 iterations: ratio 7/2. *)
  let g = build [ (0, 1, 3, 0); (1, 0, 4, 2) ] 2 in
  Alcotest.(check (option q)) "ratio 7/2" (Some (Q.make 7 2))
    (Cycle_ratio.exact_over g (all_nodes 2))

let test_max_of_two_cycles () =
  (* Two cycles: 0<->1 with ratio 5, 0 self loop ratio 2: max is 5. *)
  let g = build [ (0, 1, 2, 0); (1, 0, 3, 1); (0, 0, 2, 1) ] 2 in
  Alcotest.(check (option q)) "max ratio" (Some (Q.of_int 5))
    (Cycle_ratio.exact_over g (all_nodes 2))

let test_no_cycle () =
  let g = build [ (0, 1, 5, 0) ] 2 in
  Alcotest.(check (option q)) "acyclic" None
    (Cycle_ratio.exact_over g (all_nodes 2))

let test_zero_latency_cycle () =
  let g = build [ (0, 1, 0, 0); (1, 0, 0, 1) ] 2 in
  Alcotest.(check (option q)) "ratio 0" (Some Q.zero)
    (Cycle_ratio.exact_over g (all_nodes 2))

let test_subset_restriction () =
  (* The critical cycle is outside the queried subset. *)
  let g = build [ (0, 0, 9, 1); (1, 1, 2, 1) ] 2 in
  Alcotest.(check (option q)) "only node 1" (Some (Q.of_int 2))
    (Cycle_ratio.exact_over g [ 1 ])

let test_positive_cycle_monotone () =
  let g = build [ (0, 1, 3, 0); (1, 0, 4, 2) ] 2 in
  (* lambda* = 7/2: positive cycle strictly below, none at or above. *)
  Alcotest.(check bool) "below" true
    (Cycle_ratio.has_positive_cycle g (all_nodes 2) (Q.of_int 3));
  Alcotest.(check bool) "at" false
    (Cycle_ratio.has_positive_cycle g (all_nodes 2) (Q.make 7 2));
  Alcotest.(check bool) "above" false
    (Cycle_ratio.has_positive_cycle g (all_nodes 2) (Q.of_int 4))

(* The maximum cycle ratio by brute force: every simple cycle, found
   once from its smallest node, as (sum l, sum d). *)
let brute_force n edges =
  let best = ref None in
  let rec walk start v (l, d) seen =
    List.iter
      (fun (s, t, l', d') ->
        if s = v then
          if t = start then begin
            let r = Q.make (l + l') (d + d') in
            match !best with
            | Some b when Q.( >= ) b r -> ()
            | _ -> best := Some r
          end
          else if t > start && not (List.mem t seen) then
            walk start t (l + l', d + d') (t :: seen))
      edges
  in
  for start = 0 to n - 1 do
    walk start start (0, 0) [ start ]
  done;
  !best

(* Property: the exact ratio is the brute-force maximum on small random
   graphs, values up to the DSL's bound included, and on rings of up to
   24 edges at equal near-bound values (the shape whose bisection once
   lost exactness at 17 edges).  An edge that goes back, or to itself,
   carries a distance of at least 1, so every cycle spans one iteration
   or more; some graphs are acyclic. *)
let prop_brute_force =
  let gen =
    QCheck.make
      ~print:(fun (n, es) ->
        String.concat " "
          (string_of_int n
          :: List.map
               (fun (s, t, l, d) -> Printf.sprintf "%d>%d:%d/%d" s t l d)
               es))
      (QCheck.Gen.map
         (fun seed ->
           let rng = Rng.create seed in
           let n = 1 + Rng.int rng 6 in
           let edge_in n () =
             let s = Rng.int rng n and t = Rng.int rng n in
             let lat =
               if Rng.chance rng 0.2 then 255 - Rng.int rng 3 else Rng.int rng 9
             in
             let dist = if t > s then Rng.int rng 2 else 1 + Rng.int rng 3 in
             (s, t, lat, dist)
           in
           if Rng.chance rng 0.3 then
             (* A long ring at equal near-bound values, plus chords. *)
             let n = 2 + Rng.int rng 23 in
             let lat = 240 + Rng.int rng 16 and dist = 240 + Rng.int rng 16 in
             ( n,
               List.init n (fun i -> (i, (i + 1) mod n, lat, dist))
               @ List.init (Rng.int rng 3) (fun _ -> edge_in n ()) )
           else (n, List.init (Rng.int rng 10) (fun _ -> edge_in n ())))
         QCheck.Gen.int)
  in
  QCheck.Test.make ~name:"exact ratio = brute-force maximum" ~count:300 gen
    (fun (n, edges) ->
      let g = build edges n in
      Cycle_ratio.exact_over g (all_nodes n) = brute_force n edges)

(* Property: the exact ratio is the feasibility boundary: the
   positive-cycle test fails at the ratio itself and succeeds just
   below it. *)
let prop_exact_is_boundary =
  let gen =
    QCheck.make
      (QCheck.Gen.map
         (fun seed ->
           let rng = Hcv_support.Rng.create seed in
           let lat = 1 + Hcv_support.Rng.int rng 12 in
           let dist = 1 + Hcv_support.Rng.int rng 4 in
           let lat2 = 1 + Hcv_support.Rng.int rng 12 in
           build [ (0, 1, lat, 0); (1, 0, lat2, dist) ] 2)
         QCheck.Gen.int)
  in
  QCheck.Test.make ~name:"exact ratio is the feasibility boundary" ~count:100
    gen (fun g ->
      let nodes = all_nodes 2 in
      match Cycle_ratio.exact_over g nodes with
      | None -> false
      | Some r ->
        (not (Cycle_ratio.has_positive_cycle g nodes r))
        && Cycle_ratio.has_positive_cycle g nodes
             (Q.sub r (Q.make 1 1000)))

let suite =
  [
    Alcotest.test_case "self loop" `Quick test_simple_self_loop;
    Alcotest.test_case "fractional ratio" `Quick test_fractional_ratio;
    Alcotest.test_case "max of two cycles" `Quick test_max_of_two_cycles;
    Alcotest.test_case "no cycle" `Quick test_no_cycle;
    Alcotest.test_case "zero-latency cycle" `Quick test_zero_latency_cycle;
    Alcotest.test_case "subset restriction" `Quick test_subset_restriction;
    Alcotest.test_case "positive-cycle monotone" `Quick
      test_positive_cycle_monotone;
    QCheck_alcotest.to_alcotest prop_brute_force;
    QCheck_alcotest.to_alcotest prop_exact_is_boundary;
  ]
