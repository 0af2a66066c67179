(** Compile-time estimation of execution time and ED² of a candidate
    heterogeneous configuration from the reference profile (paper §3.2,
    §3.3) — no scheduling involved.

    The estimated IT of a loop is the smallest initiation time that
    simultaneously (1) reaches the configuration's MIT, (2) provides
    enough bus slots for the communications of the homogeneous schedule,
    (3) provides enough register-lifetime slots for the homogeneous
    schedule's lifetimes, and (4) admits a synchronisable (frequency,
    II) pair for every domain under the machine's frequency grid.

    The iteration length is approximated by assuming half of the
    iteration executes on fast clusters and half on slow ones: the
    homogeneous iteration length in cycles times the arithmetic mean of
    the cluster cycle times. *)

open Hcv_support
open Hcv_machine
open Hcv_energy

type loop_estimate = {
  it : Q.t;
  it_length_ns : float;
  exec_ns : float;  (** one invocation *)
}

val loop_it : config:Opconfig.t -> Profile.loop_profile -> Q.t
val loop_estimate : config:Opconfig.t -> Profile.loop_profile -> loop_estimate

val predict_activity : config:Opconfig.t -> Profile.t -> Activity.t
(** Whole-run activity under the candidate configuration: per-loop
    estimated execution times, reference event counts (the heterogeneous
    schedule is assumed to keep the homogeneous instruction
    distribution, per §3.1). *)
