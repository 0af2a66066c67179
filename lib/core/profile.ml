open Hcv_support
open Hcv_ir
open Hcv_machine
open Hcv_energy
open Hcv_sched

type loop_profile = {
  loop : Loop.t;
  sched : Schedule.t;
  ii_hom : int;
  mii_hom : int;
  it_length_cycles : int;
  n_comms : int;
  lifetime_ns : float;
  exec_ns : float;
  reps : float;
  activity : Activity.t;
  rec_mii : int;
  fu_demands : (Opcode.fu_kind * int) list;
}

type t = {
  machine : Machine.t;
  config : Opconfig.t;
  loops : loop_profile list;
  activity : Activity.t;
}

let t_norm_ns = 1e6

let activity_of_schedule sched ~trip =
  let per_iter = Schedule.per_cluster_ins_energy sched in
  Activity.make
    ~exec_time_ns:(Schedule.exec_time_ns sched ~trip)
    ~per_cluster_ins_energy:(Array.map (fun e -> e *. float_of_int trip) per_iter)
    ~n_comms:(float_of_int (Schedule.n_comms sched * trip))
    ~n_mem:(float_of_int (Schedule.n_mem sched * trip))

let profile ?(obs = Hcv_obs.Trace.null) ~machine ~loops () =
  let config = Presets.reference_config machine in
  let cycle_time = Presets.reference_cycle_time in
  (* Capability screen up front: the machine is fixed for the whole
     pipeline, so a demanded FU kind no cluster supports dooms every
     downstream stage — report it as the machine's fault, not as a
     scheduling failure. *)
  match
    List.find_map
      (fun loop ->
        Option.map
          (fun msg -> (loop, msg))
          (Mii.missing_kinds_msg machine loop.Loop.ddg))
      loops
  with
  | Some (loop, msg) ->
    Error
      (Hcv_obs.Diag.v ~code:"machine-incapable"
         ~context:
           [ ("loop", loop.Loop.name); ("machine", machine.Machine.name) ]
         msg)
  | None ->
  let rec build acc = function
    | [] -> Ok (List.rev acc)
    | loop :: rest -> (
      match Homo.schedule ~machine ~cycle_time ~loop () with
      | Error msg ->
        Error
          (Hcv_obs.Diag.v ~code:"reference-unschedulable"
             ~context:[ ("loop", loop.Loop.name) ]
             msg)
      | Ok (sched, stats) ->
        let exec_ns = Schedule.exec_time_ns sched ~trip:loop.Loop.trip in
        let lifetime_ns =
          Array.fold_left
            (fun acc q -> acc +. Q.to_float q)
            0.0 (Schedule.lifetimes_ns sched)
        in
        let lp =
          {
            loop;
            sched;
            ii_hom = stats.Homo.ii;
            mii_hom = stats.Homo.mii;
            it_length_cycles =
              Q.ceil (Q.div (Schedule.it_length sched) cycle_time);
            n_comms = Schedule.n_comms sched;
            lifetime_ns;
            exec_ns;
            reps = 0.0 (* filled after weight normalisation *);
            activity = activity_of_schedule sched ~trip:loop.Loop.trip;
            (* DDG-only inputs of the per-configuration MIT, computed
               once here so selection's design-point sweep does not
               re-derive them per point. *)
            rec_mii = Mii.rec_mii loop.Loop.ddg;
            fu_demands =
              List.filter (fun (_, d) -> d > 0) (Ddg.fu_demand loop.Loop.ddg);
          }
        in
        build (lp :: acc) rest)
  in
  match build [] loops with
  | Error _ as e -> e
  | Ok [] -> Error (Hcv_obs.Diag.v ~code:"no-loops" "nothing to profile")
  | Ok lps ->
    Hcv_obs.Trace.add obs "profile.loops" (List.length lps);
    let total_weight =
      Listx.sum_float (List.map (fun lp -> lp.loop.Loop.weight) lps)
    in
    let lps =
      List.map
        (fun lp ->
          let share = lp.loop.Loop.weight /. total_weight in
          { lp with reps = share *. t_norm_ns /. lp.exec_ns })
        lps
    in
    let activity =
      List.fold_left
        (fun acc (lp : loop_profile) ->
          Activity.add acc (Activity.scale lp.activity lp.reps))
        (Activity.zero ~n_clusters:(Machine.n_clusters machine))
        lps
    in
    Ok { machine; config; loops = lps; activity }

let scale_cycle_time t cycle_time =
  let k = Q.to_float (Q.div cycle_time Presets.reference_cycle_time) in
  let a = t.activity in
  Activity.make
    ~exec_time_ns:(a.Activity.exec_time_ns *. k)
    ~per_cluster_ins_energy:a.Activity.per_cluster_ins_energy
    ~n_comms:a.Activity.n_comms ~n_mem:a.Activity.n_mem
