open Hcv_machine

type breakdown = {
  dyn_cluster : float;
  dyn_icn : float;
  dyn_cache : float;
  stat_cluster : float;
  stat_icn : float;
  stat_cache : float;
}

let total b =
  b.dyn_cluster +. b.dyn_icn +. b.dyn_cache +. b.stat_cluster +. b.stat_icn
  +. b.stat_cache

type ctx = {
  params : Params.t;
  units : Units.t;
  alpha : Alpha_power.params;
  vdd_ref : float;
  vth_ref : float;
}

let ctx ?(alpha = Alpha_power.default) ?(vdd_ref = 1.0) ?(vth_ref = 0.25)
    ~params ~units () =
  { params; units; alpha; vdd_ref; vth_ref }

(* Per-domain factors of one configuration, folded into the unit
   energies and powers they multiply.  [a *. b *. x] is [(a *. b) *. x]
   in OCaml, so multiplying a count by a precomputed [a *. b] gives the
   same float as the inline product. *)
type coeffs = {
  k_dyn_cluster : float array;  (* e_ins * delta_C *)
  k_stat_cluster : float array;  (* sigma_C * Pstat_cluster *)
  k_dyn_icn : float;
  k_dyn_cache : float;
  k_stat_icn : float;
  k_stat_cache : float;
}

let factors ctx config comp =
  let vdd = Opconfig.vdd config comp in
  match Opconfig.vth ~params:ctx.alpha config comp with
  | None ->
    invalid_arg
      (Printf.sprintf "Model.energy: unrealisable domain %s"
         (Comp.to_string comp))
  | Some vth ->
    ( Scale.delta ~vdd ~vdd_ref:ctx.vdd_ref,
      Scale.sigma ~vdd ~vth ~vdd_ref:ctx.vdd_ref ~vth_ref:ctx.vth_ref () )

let coeffs ctx ~config =
  let u = ctx.units in
  let n_clusters = Machine.n_clusters config.Opconfig.machine in
  let cl =
    Array.init n_clusters (fun i -> factors ctx config (Comp.Cluster i))
  in
  let delta_icn, sigma_icn = factors ctx config Comp.Icn in
  let delta_cache, sigma_cache = factors ctx config Comp.Cache in
  {
    k_dyn_cluster = Array.map (fun (delta, _) -> u.Units.e_ins *. delta) cl;
    k_stat_cluster =
      Array.map (fun (_, sigma) -> sigma *. u.Units.p_stat_cluster) cl;
    k_dyn_icn = u.Units.e_comm *. delta_icn;
    k_dyn_cache = u.Units.e_access *. delta_cache;
    k_stat_icn = sigma_icn *. u.Units.p_stat_icn;
    k_stat_cache = sigma_cache *. u.Units.p_stat_cache;
  }

let breakdown k ~exec_time_ns ~per_cluster_ins_energy ~n_comms ~n_mem =
  let dyn_cluster = ref 0.0 and stat_cluster = ref 0.0 in
  for i = 0 to Array.length k.k_dyn_cluster - 1 do
    dyn_cluster :=
      !dyn_cluster +. (k.k_dyn_cluster.(i) *. per_cluster_ins_energy.(i));
    stat_cluster := !stat_cluster +. (k.k_stat_cluster.(i) *. exec_time_ns)
  done;
  {
    dyn_cluster = !dyn_cluster;
    dyn_icn = k.k_dyn_icn *. n_comms;
    dyn_cache = k.k_dyn_cache *. n_mem;
    stat_cluster = !stat_cluster;
    stat_icn = k.k_stat_icn *. exec_time_ns;
    stat_cache = k.k_stat_cache *. exec_time_ns;
  }

let ed2_of k ~exec_time_ns ~per_cluster_ins_energy ~n_comms ~n_mem =
  let e =
    total (breakdown k ~exec_time_ns ~per_cluster_ins_energy ~n_comms ~n_mem)
  in
  e *. exec_time_ns *. exec_time_ns

let checked_coeffs ctx ~config (act : Activity.t) =
  let n_clusters = Machine.n_clusters config.Opconfig.machine in
  if Array.length act.Activity.per_cluster_ins_energy <> n_clusters then
    invalid_arg "Model.energy: activity/config cluster arity mismatch";
  coeffs ctx ~config

let energy ctx ~config (act : Activity.t) =
  breakdown (checked_coeffs ctx ~config act)
    ~exec_time_ns:act.Activity.exec_time_ns
    ~per_cluster_ins_energy:act.Activity.per_cluster_ins_energy
    ~n_comms:act.Activity.n_comms ~n_mem:act.Activity.n_mem

let ed2 ctx ~config (act : Activity.t) =
  ed2_of (checked_coeffs ctx ~config act)
    ~exec_time_ns:act.Activity.exec_time_ns
    ~per_cluster_ins_energy:act.Activity.per_cluster_ins_energy
    ~n_comms:act.Activity.n_comms ~n_mem:act.Activity.n_mem

let pp_breakdown ppf b =
  Format.fprintf ppf
    "E{dyn: cl=%.4f icn=%.4f cache=%.4f | stat: cl=%.4f icn=%.4f cache=%.4f | total=%.4f}"
    b.dyn_cluster b.dyn_icn b.dyn_cache b.stat_cluster b.stat_icn b.stat_cache
    (total b)
