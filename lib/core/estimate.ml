open Hcv_support
open Hcv_machine
open Hcv_energy
open Hcv_sched

type loop_estimate = { it : Q.t; it_length_ns : float; exec_ns : float }

let loop_it ~config (lp : Profile.loop_profile) =
  let machine = config.Opconfig.machine in
  let mit =
    Mit.mit_parts ~config ~rec_mii:lp.Profile.rec_mii
      ~demands:lp.Profile.fu_demands
  in
  (* Bus-slot bound: buses * II_icn >= communications per iteration. *)
  let comm_bound =
    if lp.Profile.n_comms = 0 then Q.zero
    else
      Q.div_int
        (Q.mul_int (Opconfig.cycle_time config Comp.Icn) lp.Profile.n_comms)
        machine.Machine.icn.Icn.buses
  in
  (* Lifetime bound: total register capacity across clusters. *)
  let total_regs =
    Array.fold_left
      (fun acc (c : Cluster.t) -> acc + c.Cluster.registers)
      0 machine.Machine.clusters
  in
  let lifetime_bound =
    if total_regs = 0 then Q.zero
    else
      Q.of_float_approx ~max_den:1000
        (lp.Profile.lifetime_ns /. float_of_int total_regs)
  in
  let lower = Q.max mit (Q.max comm_bound lifetime_bound) in
  (* The reference scheduler achieved ii_hom >= mii_hom; the same
     schedulability slack (partition quality, bus pressure) will apply
     to the heterogeneous schedule, so inflate the bound by the
     profiled ratio. *)
  let inflation =
    if lp.Profile.mii_hom <= 0 then Q.one
    else Q.make lp.Profile.ii_hom lp.Profile.mii_hom
  in
  let lower = Q.mul lower inflation in
  (* Snap up to the first IT with a synchronisable clocking. *)
  let rec snap it tries =
    if tries = 0 then it
    else
      match Clocking.of_config ~config ~it with
      | Ok _ -> it
      | Error _ -> snap (Mit.next_candidate ~config ~after:it) (tries - 1)
  in
  snap lower 64

let mean_cluster_ct config =
  let pts = config.Opconfig.cluster_points in
  Listx.mean
    (Array.to_list
       (Array.map (fun (p : Opconfig.point) -> Q.to_float p.Opconfig.cycle_time) pts))

let loop_estimate ~config (lp : Profile.loop_profile) =
  let it = loop_it ~config lp in
  let it_length_ns =
    float_of_int lp.Profile.it_length_cycles *. mean_cluster_ct config
  in
  let trip = lp.Profile.loop.Hcv_ir.Loop.trip in
  let exec_ns = (float_of_int (trip - 1) *. Q.to_float it) +. it_length_ns in
  { it; it_length_ns; exec_ns }

let predict_activity ~config (p : Profile.t) =
  let n_clusters = Machine.n_clusters p.Profile.machine in
  List.fold_left
    (fun acc (lp : Profile.loop_profile) ->
      let est = loop_estimate ~config lp in
      let ref_act = lp.Profile.activity in
      let act =
        Activity.make ~exec_time_ns:est.exec_ns
          ~per_cluster_ins_energy:ref_act.Activity.per_cluster_ins_energy
          ~n_comms:ref_act.Activity.n_comms ~n_mem:ref_act.Activity.n_mem
      in
      Activity.add acc (Activity.scale act lp.Profile.reps))
    (Activity.zero ~n_clusters) p.Profile.loops
