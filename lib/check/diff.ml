(* Differential fuzz drivers.  See diff.mli. *)

open Hcv_support
open Hcv_ir
open Hcv_machine
open Hcv_energy
open Hcv_sched
open Hcv_explore

type tolerances = {
  energy_rel : float;
  est_ratio_lo : float;
  est_ratio_hi : float;
}

let default_tolerances =
  { energy_rel = 1e-6; est_ratio_lo = 0.2; est_ratio_hi = 5.0 }

type category =
  | Crash
  | Illegal
  | Clocking
  | Oracle_disagreement
  | Sim_violation
  | Sim_time_mismatch
  | Energy_mismatch
  | Estimate_out_of_band
  | Frontier_mismatch

let category_to_string = function
  | Crash -> "crash"
  | Illegal -> "illegal"
  | Clocking -> "clocking"
  | Oracle_disagreement -> "oracle-disagreement"
  | Sim_violation -> "sim-violation"
  | Sim_time_mismatch -> "sim-time-mismatch"
  | Energy_mismatch -> "energy-mismatch"
  | Estimate_out_of_band -> "estimate-out-of-band"
  | Frontier_mismatch -> "frontier-mismatch"

let all_categories =
  [
    Crash;
    Illegal;
    Clocking;
    Oracle_disagreement;
    Sim_violation;
    Sim_time_mismatch;
    Energy_mismatch;
    Estimate_out_of_band;
    Frontier_mismatch;
  ]

type outcome = {
  scheduled : bool;
  energy_checked : bool;
  estimate_checked : bool;
  frontier_checked : bool;
  problems : (category * string) list;
}

(* A throwaway scoring context: the scheduler's ED2 refinement only
   needs *some* consistent unit energies, and the energy differential
   compares measured vs analytic under the same ctx, so any reference
   activity works. *)
let ctx_for machine =
  let n = Machine.n_clusters machine in
  let act =
    Activity.make ~exec_time_ns:1e6
      ~per_cluster_ins_energy:(Array.make n 100.)
      ~n_comms:100. ~n_mem:100.
  in
  Model.ctx ~params:Params.default
    ~units:(Units.of_reference ~params:Params.default ~n_clusters:n act)
    ()

let rel_err a b =
  let scale = Float.max (Float.abs a) (Float.abs b) in
  if scale = 0.0 then 0.0 else Float.abs (a -. b) /. scale

(* The modulo-schedule execution-time formula, exact. *)
let formula_exec_ns (s : Schedule.t) ~trip =
  Q.add
    (Q.mul_int s.Schedule.clocking.Clocking.it (trip - 1))
    (Schedule.it_length s)

let check_scheduled ~tol ~ctx (c : Gen.case) (sched : Schedule.t) =
  let problems = ref [] in
  let problem cat detail = problems := (cat, detail) :: !problems in
  let catching label f =
    try f ()
    with e -> problem Crash (label ^ ": " ^ Printexc.to_string e)
  in
  (* 1. The independent oracle. *)
  let legal = Legal.verify sched in
  (match legal with
  | Ok () -> ()
  | Error vs ->
    problem Illegal (String.concat "; " (Legal.to_strings vs)));
  (* 2. Oracle vs the production validator: same rules, independent
     derivations — they must agree on legality. *)
  catching "validate" (fun () ->
      match (legal, Schedule.validate sched) with
      | Ok (), Error es ->
        problem Oracle_disagreement
          ("oracle accepts, Schedule.validate rejects: "
          ^ String.concat "; " es)
      | Error _, Ok () ->
        problem Oracle_disagreement "oracle rejects, Schedule.validate accepts"
      | Ok (), Ok () | Error _, Error _ -> ());
  (* 3. The two lifetime derivations must agree exactly. *)
  catching "lifetimes" (fun () ->
      let ours = Legal.lifetime_sums sched in
      let theirs = Schedule.lifetimes_ns sched in
      Array.iteri
        (fun cl a ->
          if not (Q.equal a theirs.(cl)) then
            problem Oracle_disagreement
              (Format.asprintf
                 "cluster %d lifetimes: oracle %a ns, production %a ns" cl Q.pp
                 a Q.pp theirs.(cl)))
        ours);
  (* 4. The clocking against the config and its grid. *)
  catching "clocking" (fun () ->
      match Legal.verify_clocking ~config:c.Gen.config sched.clocking with
      | Ok () -> ()
      | Error vs ->
        problem Clocking (String.concat "; " (Legal.to_strings vs)));
  (* 5. Event-driven replay: no violations, and the exact replay time
     equals the modulo-schedule formula. *)
  catching "simulator" (fun () ->
      let trip = max 1 (min 12 c.Gen.loop.Loop.trip) in
      let r = Hcv_sim.Simulator.run ~schedule:sched ~trip () in
      (match r.Hcv_sim.Simulator.violations with
      | [] -> ()
      | vs -> problem Sim_violation (String.concat "; " vs));
      let expect = formula_exec_ns sched ~trip in
      if not (Q.equal r.Hcv_sim.Simulator.exec_ns expect) then
        problem Sim_time_mismatch
          (Format.asprintf "replay %a ns, formula %a ns (trip %d)" Q.pp
             r.Hcv_sim.Simulator.exec_ns Q.pp expect trip));
  (* 6. Energy of measured vs analytic activity (realisable configs
     only: the model has no operating point otherwise). *)
  let energy_checked = ref false in
  catching "energy" (fun () ->
      if Opconfig.realisable c.Gen.config then begin
        let trip = max 1 (min 12 c.Gen.loop.Loop.trip) in
        match Hcv_sim.Simulator.measure ~schedule:sched ~trip with
        | Error _ -> () (* already reported as Sim_violation *)
        | Ok measured ->
          energy_checked := true;
          let analytic = Hcv_core.Profile.activity_of_schedule sched ~trip in
          let em =
            Model.total (Model.energy ctx ~config:c.Gen.config measured)
          in
          let ea =
            Model.total (Model.energy ctx ~config:c.Gen.config analytic)
          in
          if rel_err em ea > tol.energy_rel then
            problem Energy_mismatch
              (Printf.sprintf
                 "measured-activity energy %.6g, analytic %.6g (rel err %.3g \
                  > %.3g)"
                 em ea (rel_err em ea) tol.energy_rel)
      end);
  (* Checks 7 and 8 share the case's reference profile, computed once
     (a raise surfaces through whichever check forces it first, and
     again through the other). *)
  let profile =
    lazy
      (Hcv_core.Profile.profile ~machine:c.Gen.machine ~loops:[ c.Gen.loop ]
         ())
  in
  (* 7. The §3.2 compile-time estimate against the scheduled time. *)
  let estimate_checked = ref false in
  catching "estimate" (fun () ->
      match Lazy.force profile with
      | Error _ -> () (* reference profile unobtainable: skip *)
      | Ok profile ->
        let lp = List.hd profile.Hcv_core.Profile.loops in
        let est = Hcv_core.Estimate.loop_estimate ~config:c.Gen.config lp in
        let actual =
          Schedule.exec_time_ns sched ~trip:c.Gen.loop.Loop.trip
        in
        if actual > 0.0 then begin
          estimate_checked := true;
          let ratio = est.Hcv_core.Estimate.exec_ns /. actual in
          if ratio < tol.est_ratio_lo || ratio > tol.est_ratio_hi then
            problem Estimate_out_of_band
              (Printf.sprintf
                 "estimated %.4g ns vs scheduled %.4g ns: ratio %.4g outside \
                  [%.3g, %.3g]"
                 est.Hcv_core.Estimate.exec_ns actual ratio tol.est_ratio_lo
                 tol.est_ratio_hi)
        end);
  (* 8. The Pareto frontier of the §3.3 selection sweep against the
     legacy scalarised selector, over the case's single-loop profile:
     sound (no member dominates another), complete (every realisable
     swept point dominated by or tying a member), and its ED² corner
     byte-identical to the selector's choice. *)
  let frontier_checked = ref false in
  catching "frontier" (fun () ->
      let module S = Hcv_core.Select in
      let module F = Hcv_core.Frontier in
      match Lazy.force profile with
      | Error _ -> () (* reference profile unobtainable: skip *)
      | Ok profile -> (
        let legacy =
          S.select_heterogeneous ~ctx ~machine:c.Gen.machine profile
        in
        let front =
          S.frontier_heterogeneous ~ctx ~machine:c.Gen.machine profile
        in
        match (legacy, front) with
        | Error _, Error _ -> () (* both agree nothing is realisable *)
        | Ok _, Error d ->
          problem Frontier_mismatch
            ("selector found a choice but the frontier errored: "
            ^ Hcv_obs.Diag.code d)
        | Error d, Ok _ ->
          problem Frontier_mismatch
            ("frontier is non-empty but the selector errored: "
            ^ Hcv_obs.Diag.code d)
        | Ok best, Ok f -> (
          frontier_checked := true;
          let members = F.members f in
          let objectives = (F.spec_of f).F.objectives in
          List.iter
            (fun (a : _ F.entry) ->
              List.iter
                (fun (b : _ F.entry) ->
                  if
                    a.F.index <> b.F.index
                    && F.dominates ~objectives a.F.fvec b.F.fvec
                  then
                    problem Frontier_mismatch
                      (Printf.sprintf "member %d dominates member %d"
                         a.F.index b.F.index))
                members)
            members;
          let scored =
            S.sweep_heterogeneous ~ctx ~machine:c.Gen.machine
              ~slow_factors:Presets.slow_factors profile
          in
          List.iteri
            (fun i -> function
              | None -> ()
              | Some ch ->
                let v = S.vec_of_choice ch in
                let covered =
                  List.exists
                    (fun (m : _ F.entry) ->
                      m.F.fvec = v || F.dominates ~objectives m.F.fvec v)
                    members
                in
                if not covered then
                  problem Frontier_mismatch
                    (Printf.sprintf
                       "scored point %d is neither dominated by nor on the \
                        frontier"
                       i))
            scored;
          match F.min_by f F.Ed2 with
          | None -> problem Frontier_mismatch "frontier has no ED2 corner"
          | Some corner ->
            let text ch = Jsonx.to_string (Hcv_core.Sweep.choice_to_json ch) in
            let cb = text corner.F.item and sb = text best in
            if not (String.equal cb sb) then
              problem Frontier_mismatch
                ("ED2 corner differs from select_heterogeneous: " ^ cb
               ^ " vs " ^ sb))));
  (!energy_checked, !estimate_checked, !frontier_checked, List.rev !problems)

let check_case ?(tol = default_tolerances) (c : Gen.case) =
  let ctx = ctx_for c.Gen.machine in
  match
    Hcv_core.Hsched.schedule ~ctx ~config:c.Gen.config ~loop:c.Gen.loop ()
  with
  | Ok (sched, _stats) ->
    let energy_checked, estimate_checked, frontier_checked, problems =
      check_scheduled ~tol ~ctx c sched
    in
    { scheduled = true; energy_checked; estimate_checked; frontier_checked;
      problems }
  | Error _ ->
    (* Clean rejection: random machines may be unschedulable. *)
    {
      scheduled = false;
      energy_checked = false;
      estimate_checked = false;
      frontier_checked = false;
      problems = [];
    }
  | exception e ->
    {
      scheduled = false;
      energy_checked = false;
      estimate_checked = false;
      frontier_checked = false;
      problems = [ (Crash, "Hsched.schedule: " ^ Printexc.to_string e) ];
    }

type failure = {
  seed : int;
  category : category;
  detail : string;
  repro : string;
}

type report = {
  cases : int;
  scheduled : int;
  unschedulable : int;
  energy_checked : int;
  estimate_checked : int;
  frontier_checked : int;
  failures : failure list;
}

let shrunk_repro ~tol ~shrink ~shrink_checks (c : Gen.case) category =
  if not shrink then Gen.print_case c
  else
    let keep c' =
      List.exists
        (fun (cat, _) -> cat = category)
        (check_case ~tol c').problems
    in
    Gen.print_case (Gen.shrink ~max_checks:shrink_checks ~keep c)

let run ?pool ?(obs = Hcv_obs.Trace.null) ?(tol = default_tolerances)
    ?(shrink = true) ?(shrink_checks = 150) ~seed ~cases () =
  (* Sub-seeds drawn up front from one stream, so the work list — and
     therefore every result — is identical for any worker count. *)
  let seeds =
    let rng = Rng.create seed in
    List.init cases (fun _ -> Int64.to_int (Rng.next rng) land max_int)
  in
  let check seed =
    let c = Gen.case ~seed in
    let o = check_case ~tol c in
    let failures =
      List.map
        (fun (category, detail) ->
          {
            seed;
            category;
            detail;
            repro = shrunk_repro ~tol ~shrink ~shrink_checks c category;
          })
        o.problems
    in
    (o, failures)
  in
  let results =
    match pool with
    | Some p -> Pool.map p check seeds
    | None -> List.map check seeds
  in
  Hcv_obs.Trace.add obs "fuzz.cases" cases;
  List.iter
    (fun ((o : outcome), fs) ->
      if o.scheduled then Hcv_obs.Trace.incr obs "fuzz.scheduled"
      else Hcv_obs.Trace.incr obs "fuzz.unschedulable";
      List.iter
        (fun f ->
          Hcv_obs.Trace.incr obs
            ("fuzz.fail." ^ category_to_string f.category))
        fs)
    results;
  List.fold_left
    (fun acc ((o : outcome), fs) ->
      {
        acc with
        scheduled = (acc.scheduled + if o.scheduled then 1 else 0);
        unschedulable = (acc.unschedulable + if o.scheduled then 0 else 1);
        energy_checked =
          (acc.energy_checked + if o.energy_checked then 1 else 0);
        estimate_checked =
          (acc.estimate_checked + if o.estimate_checked then 1 else 0);
        frontier_checked =
          (acc.frontier_checked + if o.frontier_checked then 1 else 0);
        failures = acc.failures @ fs;
      })
    {
      cases;
      scheduled = 0;
      unschedulable = 0;
      energy_checked = 0;
      estimate_checked = 0;
      frontier_checked = 0;
      failures = [];
    }
    results

let failure_json f =
  Jsonx.Obj
    [
      ("seed", Jsonx.Str (string_of_int f.seed));
      ("category", Jsonx.Str (category_to_string f.category));
      ("detail", Jsonx.Str f.detail);
      ("repro", Jsonx.Str f.repro);
    ]

let pp_report ppf r =
  let t =
    Tablefmt.create ~title:"fuzz summary"
      [ ("metric", Tablefmt.Left); ("count", Tablefmt.Right) ]
  in
  Tablefmt.add_row t [ "cases"; string_of_int r.cases ];
  Tablefmt.add_row t [ "scheduled"; string_of_int r.scheduled ];
  Tablefmt.add_row t [ "unschedulable"; string_of_int r.unschedulable ];
  Tablefmt.add_row t [ "energy checked"; string_of_int r.energy_checked ];
  Tablefmt.add_row t [ "estimate checked"; string_of_int r.estimate_checked ];
  Tablefmt.add_row t [ "frontier checked"; string_of_int r.frontier_checked ];
  Tablefmt.add_sep t;
  List.iter
    (fun cat ->
      let n =
        List.length (List.filter (fun f -> f.category = cat) r.failures)
      in
      if n > 0 then
        Tablefmt.add_row t
          [ "FAIL " ^ category_to_string cat; string_of_int n ])
    all_categories;
  Tablefmt.add_row t [ "failures"; string_of_int (List.length r.failures) ];
  Format.fprintf ppf "%s" (Tablefmt.render t)
