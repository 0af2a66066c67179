open Hcv_machine
open Hcv_energy
open Hcv_sched
open Hcv_obs

let src = Logs.Src.create "hcv.pipeline" ~doc:"benchmark pipeline"

module Log = (val Logs.src_log src : Logs.LOG)

type loop_result = {
  profile : Profile.loop_profile;
  schedule : Schedule.t;
  stats : Hsched.stats;
}

type t = {
  name : string;
  profile : Profile.t;
  ctx : Model.ctx;
  homo : Select.choice;
  hetero : Select.choice;
  frontier : Select.choice Frontier.t option;
  loop_results : loop_result list;
  fallbacks : int;
  fallback_causes : (string * Diag.t) list;
  hetero_activity : Activity.t;
  ed2_homo : float;
  ed2_hetero : float;
  ed2_ratio : float;
  time_ratio : float;
  energy_ratio : float;
}

(* Schedule every loop under [config] and aggregate the measured
   activity; loops that fail fall back to the §3.2 estimate, recording
   the loop and the diagnostic that caused the fallback. *)
let evaluate ?preplace ?score_mode ?budget ?(obs = Trace.null) ~ctx ~machine
    ~name (profile : Profile.t) (choice : Select.choice) =
  let config = choice.Select.config in
  let loop_results, fallbacks_rev =
    List.fold_left
      (fun (acc, fb) (lp : Profile.loop_profile) ->
        let lname = lp.Profile.loop.Hcv_ir.Loop.name in
        Trace.span obs ("loop:" ^ lname) (fun sp ->
            match
              Hsched.schedule ~obs:sp ?preplace ?score_mode ?budget ~ctx
                ~config ~loop:lp.Profile.loop ()
            with
            | Ok (schedule, stats) ->
              ({ profile = lp; schedule; stats } :: acc, fb)
            | Error diag ->
              Log.warn (fun m ->
                  m "%s: loop %s fell back to the estimate: %a" name lname
                    Diag.pp diag);
              Trace.incr sp ("fallback." ^ Diag.code diag);
              let est = Estimate.loop_estimate ~config lp in
              let ref_act = lp.Profile.activity in
              let act =
                Activity.make ~exec_time_ns:est.Estimate.exec_ns
                  ~per_cluster_ins_energy:
                    ref_act.Activity.per_cluster_ins_energy
                  ~n_comms:ref_act.Activity.n_comms
                  ~n_mem:ref_act.Activity.n_mem
              in
              ( acc,
                (lname, diag, Activity.scale act lp.Profile.reps) :: fb )))
      ([], []) profile.Profile.loops
  in
  let loop_results = List.rev loop_results in
  let fallbacks = List.rev fallbacks_rev in
  let activity =
    List.fold_left
      (fun acc r ->
        Activity.add acc
          (Activity.scale
             (Profile.activity_of_schedule r.schedule
                ~trip:r.profile.Profile.loop.Hcv_ir.Loop.trip)
             r.profile.Profile.reps))
      (Activity.zero ~n_clusters:(Machine.n_clusters machine))
      loop_results
  in
  let activity =
    List.fold_left (fun acc (_, _, a) -> Activity.add acc a) activity fallbacks
  in
  let ed2 = Model.ed2 ctx ~config activity in
  let causes = List.map (fun (l, d, _) -> (l, d)) fallbacks in
  (loop_results, causes, activity, ed2)

(* One paper stage: its own ["stage:<name>"] span under [obs], and the
   stage's name on any diagnostic that escapes without one. *)
let stage obs name f =
  Trace.span obs ("stage:" ^ name) (fun sp ->
      Result.map_error (Diag.with_stage name) (f sp))

let stage_names =
  [ "profile"; "context"; "homo-optimum"; "select"; "schedule"; "evaluate" ]

(* The six paper stages (the flow behind Figures 6-9; see the .mli
   header), plus the frontier stage when a spec is given. *)
let run ?pool ?budget ?frontier ?(params = Params.default) ?(obs = Trace.null)
    ~machine ~name ~loops () =
  let ( let* ) = Result.bind in
  let* profile =
    stage obs "profile" (fun obs -> Profile.profile ~obs ~machine ~loops ())
  in
  let* ctx =
    stage obs "context" (fun _ ->
        let units =
          Units.of_reference ~params ~n_clusters:(Machine.n_clusters machine)
            profile.Profile.activity
        in
        Ok (Model.ctx ~params ~units ()))
  in
  let* homo =
    stage obs "homo-optimum" (fun obs ->
        Select.optimum_homogeneous ~obs ~ctx ~machine profile)
  in
  let* hetero_pick, uniform_pick =
    stage obs "select" (fun obs ->
        let* hetero_pick =
          Select.select_heterogeneous ?pool ?budget ~obs ~ctx ~machine profile
        in
        let* uniform_pick =
          Select.select_uniform ?pool ?budget ~obs ~ctx ~machine profile
        in
        Ok (hetero_pick, uniform_pick))
  in
  (* Run only when a frontier spec was requested, so the default
     pipeline's span tree (and its golden-pinned traces) is unchanged. *)
  let* front =
    match frontier with
    | None -> Ok None
    | Some spec ->
      stage obs "frontier" (fun obs ->
          Result.map Option.some
            (Select.frontier_heterogeneous ?pool ?budget ~obs ~spec ~ctx
               ~machine profile))
  in
  let* hetero, measured =
    stage obs "schedule" (fun obs ->
        (* The model picks a heterogeneous candidate; schedule it and
           the best uniform-frequency candidate, and keep whichever
           measures better (the paper's selector likewise falls back to
           a same-frequency configuration when heterogeneity does not
           pay). *)
        let eval tag choice =
          Trace.span obs ("candidate:" ^ tag) (fun sp ->
              evaluate ?budget ~obs:sp ~ctx ~machine ~name profile choice)
        in
        let candidates =
          if hetero_pick.Select.config = uniform_pick.Select.config then
            [ (hetero_pick, eval "hetero" hetero_pick) ]
          else
            [
              (hetero_pick, eval "hetero" hetero_pick);
              (uniform_pick, eval "uniform" uniform_pick);
            ]
        in
        Ok (Hcv_support.Listx.min_by (fun (_, (_, _, _, e)) -> e) candidates))
  in
  stage obs "evaluate" (fun obs ->
      let loop_results, fallback_causes, hetero_activity, ed2_hetero =
        measured
      in
      let homo_ct =
        (Opconfig.point homo.Select.config (Comp.Cluster 0)).Opconfig.cycle_time
      in
      let homo_activity = Profile.scale_cycle_time profile homo_ct in
      let ed2_homo = Model.ed2 ctx ~config:homo.Select.config homo_activity in
      let e_homo =
        Model.total (Model.energy ctx ~config:homo.Select.config homo_activity)
      in
      let e_het =
        Model.total
          (Model.energy ctx ~config:hetero.Select.config hetero_activity)
      in
      Trace.add obs "evaluate.loops" (List.length loop_results);
      Trace.add obs "evaluate.fallbacks" (List.length fallback_causes);
      Ok
        {
          name;
          profile;
          ctx;
          homo;
          hetero;
          frontier = front;
          loop_results;
          fallbacks = List.length fallback_causes;
          fallback_causes;
          hetero_activity;
          ed2_homo;
          ed2_hetero;
          ed2_ratio = ed2_hetero /. ed2_homo;
          time_ratio =
            hetero_activity.Activity.exec_time_ns
            /. homo_activity.Activity.exec_time_ns;
          energy_ratio = e_het /. e_homo;
        })

let measure_config ?preplace ?score_mode ?budget ?obs ~ctx ~machine ~profile
    ~config () =
  let choice =
    {
      Select.config;
      predicted_ed2 = 0.0;
      predicted_time_ns = 0.0;
      predicted_energy = 0.0;
    }
  in
  let _, causes, activity, ed2 =
    evaluate ?preplace ?score_mode ?budget ?obs ~ctx ~machine ~name:"measure"
      profile choice
  in
  (activity, ed2, List.length causes)

let pp_summary ppf t =
  Format.fprintf ppf "%-12s ED2 %.3f (time x%.3f, energy x%.3f)%s" t.name
    t.ed2_ratio t.time_ratio t.energy_ratio
    (if t.fallbacks > 0 then
       Printf.sprintf " [%d fallbacks: %s]" t.fallbacks
         (String.concat ", "
            (List.map
               (fun (l, d) -> Printf.sprintf "%s=%s" l (Diag.code d))
               t.fallback_causes))
     else "")
