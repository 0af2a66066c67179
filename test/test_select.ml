(* The selection sweep's contracts: structured error paths when the
   voltage model rules the whole grid out, budget-as-prefix semantics,
   and pool-vs-serial byte identity. *)

open Hcv_support
open Hcv_machine
open Hcv_energy
open Hcv_core

(* A choice's exact cached form, for byte comparisons. *)
let choice_text c = Hcv_explore.Jsonx.to_string (Sweep.choice_to_json c)

let machine = Presets.machine_4c ~buses:1

let small_loops () =
  [
    Builders.dotprod ~trip:50 ();
    Builders.recurrence_loop ~trip:80 ();
    Builders.wide_loop ~trip:60 ~width:6 ();
  ]

let with_profile f =
  match Profile.profile ~machine ~loops:(small_loops ()) () with
  | Error d -> Alcotest.failf "profiling failed: %a" Hcv_obs.Diag.pp d
  | Ok p -> f p

let ctx_of ?alpha p =
  let units =
    Units.of_reference ~params:Params.default ~n_clusters:4
      p.Profile.activity
  in
  Model.ctx ?alpha ~params:Params.default ~units ()

let diag_ok = function
  | Ok v -> v
  | Error d -> Alcotest.failf "unexpected diagnostic: %a" Hcv_obs.Diag.pp d

let err_code = function
  | Ok _ -> Alcotest.fail "expected a diagnostic, got a choice"
  | Error d -> Hcv_obs.Diag.code d

(* A technology whose reference frequency is so low that no grid point
   can reach the sweep's target frequencies: every candidate fails
   Alpha_power.supports, so each selector must report its structured
   no-point diagnostic rather than an empty fold. *)
let hopeless_alpha =
  { Alpha_power.default with Alpha_power.f_ref = Q.make 1 1000 }

let test_error_paths () =
  with_profile (fun p ->
      let ctx = ctx_of ~alpha:hopeless_alpha p in
      Alcotest.(check string) "homogeneous" "no-homogeneous-point"
        (err_code (Select.optimum_homogeneous ~ctx ~machine p));
      Alcotest.(check string) "heterogeneous" "no-heterogeneous-point"
        (err_code (Select.select_heterogeneous ~ctx ~machine p));
      Alcotest.(check string) "uniform" "no-heterogeneous-point"
        (err_code (Select.select_uniform ~ctx ~machine p));
      Alcotest.(check string) "frontier" "no-heterogeneous-point"
        (err_code (Select.frontier_heterogeneous ~ctx ~machine p)))

(* The budgeted sweep is the leading prefix of the serial point order:
   a budgeted selection equals the selection over the smaller grid, and
   the dropped points are counted on the observation span. *)
let test_budget_prefix () =
  with_profile (fun p ->
      let ctx = ctx_of p in
      let full =
        Select.sweep_heterogeneous ~ctx ~machine
          ~slow_factors:Presets.slow_factors p
      in
      let total = List.length full in
      Alcotest.(check bool) "grid is non-trivial" true (total > 8);
      let b = 7 in
      let obs = Hcv_obs.Trace.root "test" in
      let budgeted =
        Select.sweep_heterogeneous ~obs ~budget:b ~ctx ~machine
          ~slow_factors:Presets.slow_factors p
      in
      Alcotest.(check int) "budget keeps b points" b (List.length budgeted);
      List.iteri
        (fun i c ->
          Alcotest.(check (option string))
            (Printf.sprintf "point %d is the serial point %d" i i)
            (Option.map choice_text (List.nth full i))
            (Option.map choice_text c))
        budgeted;
      (match Hcv_obs.Trace.export obs with
      | None -> Alcotest.fail "root span exported nothing"
      | Some node ->
        Alcotest.(check int) "dropped points counted" (total - b)
          (Hcv_obs.Trace.counter_total node "select.budget_dropped");
        Alcotest.(check int) "scored points counted" b
          (Hcv_obs.Trace.counter_total node "select.points"));
      (* A budget covering the whole grid changes nothing and counts no
         drops. *)
      let obs2 = Hcv_obs.Trace.root "test" in
      let whole =
        Select.sweep_heterogeneous ~obs:obs2 ~budget:total ~ctx ~machine
          ~slow_factors:Presets.slow_factors p
      in
      Alcotest.(check int) "covering budget keeps all" total
        (List.length whole);
      match Hcv_obs.Trace.export obs2 with
      | None -> Alcotest.fail "root span exported nothing"
      | Some node ->
        Alcotest.(check int) "no drops counted" 0
          (Hcv_obs.Trace.counter_total node "select.budget_dropped"))

let test_budgeted_selection_equals_prefix_fold () =
  with_profile (fun p ->
      let ctx = ctx_of p in
      let b = 9 in
      let choice =
        diag_ok (Select.select_heterogeneous ~budget:b ~ctx ~machine p)
      in
      let prefix =
        Listx.take b
          (Select.sweep_heterogeneous ~ctx ~machine
             ~slow_factors:Presets.slow_factors p)
      in
      (* Recompute the fold the selector documents: earliest strict
         minimum of predicted ED² over the prefix. *)
      let best =
        List.fold_left
          (fun acc c ->
            match (acc, c) with
            | None, c -> c
            | Some (a : Select.choice), Some b ->
              if b.Select.predicted_ed2 < a.Select.predicted_ed2 then Some b
              else acc
            | Some _, None -> acc)
          None prefix
      in
      match best with
      | None -> Alcotest.fail "prefix had no realisable point"
      | Some best ->
        Alcotest.(check string) "budgeted selection = prefix fold"
          (choice_text best)
          (choice_text choice))

let test_pool_matches_serial () =
  with_profile (fun p ->
      let ctx = ctx_of p in
      let serial = diag_ok (Select.select_heterogeneous ~ctx ~machine p) in
      let pool = Hcv_explore.Pool.create ~jobs:2 () in
      Fun.protect
        ~finally:(fun () -> Hcv_explore.Pool.shutdown pool)
        (fun () ->
          let par =
            diag_ok (Select.select_heterogeneous ~pool ~ctx ~machine p)
          in
          let par_budget =
            diag_ok
              (Select.select_heterogeneous ~pool ~budget:9 ~ctx ~machine p)
          in
          let serial_budget =
            diag_ok (Select.select_heterogeneous ~budget:9 ~ctx ~machine p)
          in
          Alcotest.(check string) "pool = serial"
            (choice_text serial)
            (choice_text par);
          Alcotest.(check string) "pool = serial under a budget"
            (choice_text serial_budget)
            (choice_text par_budget)))

let suite =
  [
    Alcotest.test_case "structured no-point errors" `Quick test_error_paths;
    Alcotest.test_case "budget is a serial-order prefix" `Quick
      test_budget_prefix;
    Alcotest.test_case "budgeted selection = prefix fold" `Quick
      test_budgeted_selection_equals_prefix_fold;
    Alcotest.test_case "pool matches serial" `Quick test_pool_matches_serial;
  ]
