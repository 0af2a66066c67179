(** The §3.1 energy model: energy of an arbitrary configuration in terms
    of the reference homogeneous machine's unit energies.

      E_het = e_ins * sum_C delta_C * InsEnergy_C
            + e_comm * nComms * delta_ICN
            + e_access * nMem * delta_cache
            + Texec * ( sum_C sigma_C * Pstat_cluster
                      + sigma_ICN * Pstat_ICN
                      + sigma_cache * Pstat_cache )

    where delta/sigma are the {!Scale} factors of each domain's
    operating point relative to the reference point. *)

type breakdown = {
  dyn_cluster : float;
  dyn_icn : float;
  dyn_cache : float;
  stat_cluster : float;
  stat_icn : float;
  stat_cache : float;
}

val total : breakdown -> float

type ctx = {
  params : Params.t;
  units : Units.t;
  alpha : Hcv_machine.Alpha_power.params;
  vdd_ref : float;
  vth_ref : float;
}

val ctx :
  ?alpha:Hcv_machine.Alpha_power.params -> ?vdd_ref:float -> ?vth_ref:float
  -> params:Params.t -> units:Units.t -> unit -> ctx
(** Reference voltages default to the paper's 1 V / 0.25 V. *)

val energy : ctx -> config:Hcv_machine.Opconfig.t -> Activity.t -> breakdown
(** Energy of executing the given activity on [config]:
    {!coeffs}, then the formula above in a fixed operation order.
    @raise Invalid_argument if some domain of [config] is not realisable
    (no valid threshold voltage — callers must filter configurations
    with {!Hcv_machine.Opconfig.realisable} first). *)

val ed2 : ctx -> config:Hcv_machine.Opconfig.t -> Activity.t -> float
(** Energy-delay-squared: [total energy * (exec_time_ns)^2]. *)

type coeffs
(** The per-domain factors of one (context, configuration), folded into
    the unit energies and powers they multiply: what {!energy}
    recomputes on every call.  A caller that prices many activities on
    one configuration computes them once. *)

val coeffs : ctx -> config:Hcv_machine.Opconfig.t -> coeffs
(** Clusters first, then the ICN, then the cache: the first
    unrealisable domain raises, as in {!energy}.
    @raise Invalid_argument as {!energy} does. *)

val ed2_of :
  coeffs -> exec_time_ns:float -> per_cluster_ins_energy:float array
  -> n_comms:float -> n_mem:float -> float
(** {!ed2} of an activity given by its fields, without building one:
    bit-identical to [ed2 ctx ~config act] for the same coefficients
    and counts, since both evaluate the one formula in the same
    order.  Unchecked: [per_cluster_ins_energy] must have one entry per
    cluster. *)

val pp_breakdown : Format.formatter -> breakdown -> unit
