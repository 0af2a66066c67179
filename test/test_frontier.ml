(* The Pareto-dominance core: vector derivations, spec canonicalisation,
   and the frontier properties — soundness (no member dominates a
   member), completeness (every offered point is on the frontier or
   dominated by it), the ED²-corner/scalarised-selector equivalence and
   cap-filter commutation — over seeded Gen.gen_metrics corpora. *)

open Hcv_support
open Hcv_machine
open Hcv_energy
open Hcv_core
open Hcv_check

module F = Frontier

(* A choice's exact cached form, for byte comparisons. *)
let choice_text c = Hcv_explore.Jsonx.to_string (Sweep.choice_to_json c)

(* ----- vectors and dominance --------------------------------------- *)

let test_vec_components () =
  let v = F.vec ~time_ns:3.0 ~energy:2.0 in
  (* Bit-identical to the selector's own derivations: same operation
     order. *)
  Alcotest.(check bool) "ed2 = e*t*t" true (v.F.ed2 = 2.0 *. 3.0 *. 3.0);
  Alcotest.(check bool) "edp = e*t" true (v.F.edp = 2.0 *. 3.0);
  Alcotest.(check bool) "power = e/t" true (v.F.power = 2.0 /. 3.0);
  List.iter
    (fun o ->
      Alcotest.(check bool)
        (Printf.sprintf "value agrees for %s" (F.objective_name o))
        true
        (F.value v o
        = match o with
          | F.Time -> v.F.time_ns
          | F.Energy -> v.F.energy
          | F.Ed2 -> v.F.ed2
          | F.Edp -> v.F.edp
          | F.Power -> v.F.power))
    F.all_objectives

let test_dominance () =
  let a = F.vec ~time_ns:1.0 ~energy:1.0 in
  let b = F.vec ~time_ns:2.0 ~energy:2.0 in
  let objectives = F.all_objectives in
  Alcotest.(check bool) "better everywhere dominates" true
    (F.dominates ~objectives a b);
  Alcotest.(check bool) "dominance is asymmetric" false
    (F.dominates ~objectives b a);
  (* Equal vectors never dominate each other: predicted ties all stay. *)
  Alcotest.(check bool) "equal does not dominate" false
    (F.dominates ~objectives a (F.vec ~time_ns:1.0 ~energy:1.0));
  (* Fast-but-hungry vs slow-but-frugal: incomparable on {time,energy},
     comparable once only time matters. *)
  let fast = F.vec ~time_ns:1.0 ~energy:5.0 in
  let frugal = F.vec ~time_ns:5.0 ~energy:1.0 in
  Alcotest.(check bool) "incomparable on time+energy" false
    (F.dominates ~objectives:[ F.Time; F.Energy ] fast frugal
    || F.dominates ~objectives:[ F.Time; F.Energy ] frugal fast);
  Alcotest.(check bool) "time-only collapses the trade-off" true
    (F.dominates ~objectives:[ F.Time ] fast frugal)

(* ----- specs: canonical form, parsing, wire form ------------------- *)

let test_spec_canonical () =
  let s =
    F.spec ~objectives:[ F.Power; F.Time; F.Power; F.Time ]
      ~caps:
        [
          { F.cap = F.Energy; bound = 2.0 };
          { F.cap = F.Time; bound = 9.0 };
          { F.cap = F.Energy; bound = 2.0 };
        ]
      ()
  in
  (* Deduplicated into all_objectives order, caps sorted and unique. *)
  Alcotest.(check (list string))
    "objectives canonical" [ "time"; "power" ]
    (List.map F.objective_name s.F.objectives);
  Alcotest.(check (list string))
    "caps canonical" [ "time<=9"; "energy<=2" ]
    (List.map F.cap_to_string s.F.caps);
  let s' =
    F.spec ~objectives:[ F.Time; F.Power ]
      ~caps:[ { F.cap = F.Time; bound = 9.0 }; { F.cap = F.Energy; bound = 2.0 } ]
      ()
  in
  Alcotest.(check string) "equal specs, equal keys" (F.spec_key s)
    (F.spec_key s');
  Alcotest.(check bool) "default key differs" false
    (F.spec_key s = F.spec_key F.default_spec);
  Alcotest.check_raises "empty objective set rejected"
    (Invalid_argument "Frontier.spec: empty objective list") (fun () ->
      ignore (F.spec ~objectives:[] ()))

let test_cap_parse () =
  (match F.cap_of_string "energy<=2.5" with
  | Ok c ->
    Alcotest.(check string) "parses" "energy<=2.5" (F.cap_to_string c)
  | Error e -> Alcotest.failf "cap did not parse: %s" e);
  (match F.cap_of_string "time=4" with
  | Ok c -> Alcotest.(check string) "= accepted" "time<=4" (F.cap_to_string c)
  | Error e -> Alcotest.failf "cap did not parse: %s" e);
  List.iter
    (fun s ->
      match F.cap_of_string s with
      | Ok _ -> Alcotest.failf "accepted malformed cap %S" s
      | Error _ -> ())
    [ ""; "energy"; "frob<=2"; "energy<=0"; "energy<=-1"; "energy<=nan" ]

let test_spec_json_roundtrip () =
  let s =
    F.spec ~objectives:[ F.Time; F.Energy ]
      ~caps:[ { F.cap = F.Energy; bound = 2.5 } ]
      ()
  in
  let spec_of_json j =
    Hcv_explore.Decode.(
      Result.map_error message (run (obj "spec" F.spec_fields) j))
  in
  (match spec_of_json (F.spec_to_json s) with
  | Ok s' ->
    Alcotest.(check string) "roundtrips" (F.spec_key s) (F.spec_key s')
  | Error e -> Alcotest.failf "wire form did not parse: %s" e);
  (* Both fields optional with the spec defaults. *)
  (match spec_of_json (Hcv_explore.Jsonx.Obj []) with
  | Ok s' ->
    Alcotest.(check string) "defaults" (F.spec_key F.default_spec)
      (F.spec_key s')
  | Error e -> Alcotest.failf "empty object did not parse: %s" e);
  match
    spec_of_json
      (Hcv_explore.Jsonx.Obj
         [
           ( "objectives",
             Hcv_explore.Jsonx.List [ Hcv_explore.Jsonx.Str "frob" ] );
         ])
  with
  | Ok _ -> Alcotest.fail "accepted unknown objective"
  | Error _ -> ()

(* ----- frontier properties over seeded corpora --------------------- *)

let frontier_of_metrics spec metrics =
  F.of_list spec
    (List.mapi (fun i (time_ns, energy) -> (i, F.vec ~time_ns ~energy)) metrics)

(* Soundness and completeness of one frontier against the corpus it was
   built from. *)
let check_frontier ~seed spec metrics f =
  let objectives = (F.spec_of f).F.objectives in
  let ms = F.members f in
  Alcotest.(check int)
    (Printf.sprintf "seed %d: considered counts offers" seed)
    (List.length metrics) (F.considered f);
  (* No member dominates another member. *)
  List.iter
    (fun (a : int F.entry) ->
      List.iter
        (fun (b : int F.entry) ->
          if a.F.index <> b.F.index then
            Alcotest.(check bool)
              (Printf.sprintf "seed %d: member %d must not dominate member %d"
                 seed a.F.index b.F.index)
              false
              (F.dominates ~objectives a.F.fvec b.F.fvec))
        ms)
    ms;
  (* Every feasible offered point is on the frontier or dominated by a
     member. *)
  List.iteri
    (fun i (time_ns, energy) ->
      let v = F.vec ~time_ns ~energy in
      if F.feasible ~caps:spec.F.caps v then
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: point %d covered" seed i)
          true
          (List.exists
             (fun (m : int F.entry) ->
               m.F.fvec = v || F.dominates ~objectives m.F.fvec v)
             ms))
    metrics;
  (* min_by = the earliest strict minimum over the members. *)
  List.iter
    (fun o ->
      let naive =
        List.fold_left
          (fun acc (m : int F.entry) ->
            match acc with
            | Some (b : int F.entry) when F.value b.F.fvec o <= F.value m.F.fvec o
              ->
              acc
            | _ -> Some m)
          None ms
      in
      (* The fold above keeps the earliest on ties because later members
         only replace on strict improvement. *)
      Alcotest.(check (option int))
        (Printf.sprintf "seed %d: %s corner" seed (F.objective_name o))
        (Option.map (fun (m : int F.entry) -> m.F.index) naive)
        (Option.map (fun (m : int F.entry) -> m.F.index) (F.min_by f o)))
    objectives

let test_properties_default_spec () =
  (* 200 seeded corpora — the fixed-seed property battery. *)
  for seed = 1 to 200 do
    let rng = Rng.create seed in
    let n = 8 + (seed mod 41) in
    let metrics = Gen.gen_metrics ~rng ~n () in
    let f = frontier_of_metrics F.default_spec metrics in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: non-empty" seed)
      true (F.size f > 0);
    Alcotest.(check int)
      (Printf.sprintf "seed %d: no caps, no infeasible" seed)
      0 (F.infeasible f);
    check_frontier ~seed F.default_spec metrics f
  done

let test_properties_objective_subsets () =
  let subsets =
    [ [ F.Time; F.Energy ]; [ F.Ed2 ]; [ F.Edp; F.Power ]; [ F.Time; F.Power ] ]
  in
  for seed = 201 to 280 do
    let rng = Rng.create seed in
    let metrics = Gen.gen_metrics ~rng ~n:24 () in
    let objectives = List.nth subsets (seed mod List.length subsets) in
    let spec = F.spec ~objectives () in
    check_frontier ~seed spec metrics (frontier_of_metrics spec metrics);
    (* A single-objective frontier is exactly the set of points tied at
       the minimum. *)
    match objectives with
    | [ o ] ->
      let best =
        List.fold_left min infinity
          (List.map
             (fun (t, e) -> F.value (F.vec ~time_ns:t ~energy:e) o)
             metrics)
      in
      let f = frontier_of_metrics spec metrics in
      List.iter
        (fun (m : int F.entry) ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: single-objective member at min" seed)
            true
            (F.value m.F.fvec o = best))
        (F.members f)
    | _ -> ()
  done

(* Capping then folding equals filtering then folding with no caps:
   constraint filters commute with frontier construction. *)
let test_caps_commute () =
  for seed = 301 to 400 do
    let rng = Rng.create seed in
    let metrics = Gen.gen_metrics ~rng ~n:32 () in
    (* Bounds drawn inside the generator's range so both sides of the
       filter are regularly exercised. *)
    let caps =
      [
        { F.cap = F.Time; bound = 50.0 +. Rng.float rng 900.0 };
        { F.cap = F.Energy; bound = 1.0 +. Rng.float rng 90.0 };
      ]
    in
    let capped =
      frontier_of_metrics (F.spec ~caps ()) metrics
    in
    let feasible =
      List.filter
        (fun (t, e) -> F.feasible ~caps (F.vec ~time_ns:t ~energy:e))
        metrics
    in
    let filtered = frontier_of_metrics (F.spec ()) feasible in
    Alcotest.(check int)
      (Printf.sprintf "seed %d: infeasible = filtered out" seed)
      (List.length metrics - List.length feasible)
      (F.infeasible capped);
    Alcotest.(check (list (pair (float 0.0) (float 0.0))))
      (Printf.sprintf "seed %d: cap-then-fold = filter-then-fold" seed)
      (List.map
         (fun (m : int F.entry) -> (m.F.fvec.F.time_ns, m.F.fvec.F.energy))
         (F.members filtered))
      (List.map
         (fun (m : int F.entry) -> (m.F.fvec.F.time_ns, m.F.fvec.F.energy))
         (F.members capped))
  done

(* ----- the real sweep: corner exactness and pool determinism ------- *)

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
  | Ok p ->
    let units =
      Units.of_reference ~params:Params.default ~n_clusters:4
        p.Profile.activity
    in
    f (Model.ctx ~params:Params.default ~units ()) p

let diag_ok = function
  | Ok v -> v
  | Error d -> Alcotest.failf "unexpected diagnostic: %a" Hcv_obs.Diag.pp d

let test_ed2_corner_is_legacy_selector () =
  with_profile (fun ctx p ->
      let f = diag_ok (Select.frontier_heterogeneous ~ctx ~machine p) in
      let legacy = diag_ok (Select.select_heterogeneous ~ctx ~machine p) in
      match F.min_by f F.Ed2 with
      | None -> Alcotest.fail "non-empty frontier has no ED2 corner"
      | Some m ->
        (* Exactly — byte-for-byte on the serialized choice, not within
           a tolerance. *)
        Alcotest.(check string) "ED2 corner = select_heterogeneous"
          (choice_text legacy)
          (choice_text m.F.item))

let test_frontier_covers_sweep () =
  with_profile (fun ctx p ->
      let f = diag_ok (Select.frontier_heterogeneous ~ctx ~machine p) in
      let scored =
        Select.sweep_heterogeneous ~ctx ~machine
          ~slow_factors:Presets.slow_factors p
      in
      Alcotest.(check int) "considered = realisable points"
        (List.length (List.filter_map Fun.id scored))
        (F.considered f);
      List.iter
        (fun (c : Select.choice) ->
          let v = Select.vec_of_choice c in
          Alcotest.(check bool) "swept point covered" true
            (List.exists
               (fun (m : Select.choice F.entry) ->
                 m.F.fvec = v
                 || F.dominates ~objectives:F.all_objectives m.F.fvec v)
               (F.members f)))
        (List.filter_map Fun.id scored))

let members_bytes f =
  String.concat "\n"
    (List.map
       (fun (m : Select.choice F.entry) ->
         Printf.sprintf "%d %s" m.F.index (choice_text m.F.item))
       (F.members f))

let test_pool_identical () =
  with_profile (fun ctx p ->
      let serial = diag_ok (Select.frontier_heterogeneous ~ctx ~machine p) in
      let pool = Hcv_explore.Pool.create ~jobs:2 () in
      Fun.protect
        ~finally:(fun () -> Hcv_explore.Pool.shutdown pool)
        (fun () ->
          let par =
            diag_ok (Select.frontier_heterogeneous ~pool ~ctx ~machine p)
          in
          Alcotest.(check string) "members byte-identical across workers"
            (members_bytes serial) (members_bytes par)))

let test_infeasible_caps () =
  with_profile (fun ctx p ->
      let spec = F.spec ~caps:[ { F.cap = F.Time; bound = 1e-12 } ] () in
      match Select.frontier_heterogeneous ~spec ~ctx ~machine p with
      | Ok _ -> Alcotest.fail "impossible cap produced a frontier"
      | Error d ->
        Alcotest.(check string) "no-feasible-point" "no-feasible-point"
          (Hcv_obs.Diag.code d))

let suite =
  [
    Alcotest.test_case "vector components" `Quick test_vec_components;
    Alcotest.test_case "dominance" `Quick test_dominance;
    Alcotest.test_case "spec canonicalisation" `Quick test_spec_canonical;
    Alcotest.test_case "cap parsing" `Quick test_cap_parse;
    Alcotest.test_case "spec wire form" `Quick test_spec_json_roundtrip;
    Alcotest.test_case "frontier properties (200 seeds)" `Quick
      test_properties_default_spec;
    Alcotest.test_case "objective subsets (80 seeds)" `Quick
      test_properties_objective_subsets;
    Alcotest.test_case "cap filters commute (100 seeds)" `Quick
      test_caps_commute;
    Alcotest.test_case "ED2 corner = legacy selector" `Quick
      test_ed2_corner_is_legacy_selector;
    Alcotest.test_case "frontier covers the sweep" `Quick
      test_frontier_covers_sweep;
    Alcotest.test_case "pool-identical members" `Quick test_pool_identical;
    Alcotest.test_case "impossible caps diagnose" `Quick test_infeasible_caps;
  ]
