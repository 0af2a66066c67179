(** Profiling the reference homogeneous run (paper §3).

    The configuration-selection models consume, per loop: the II and
    iteration length achieved by the homogeneous scheduler, the number
    of inter-cluster communications, the summed register lifetimes, and
    the activity counts (instructions per cluster, communications,
    memory accesses) — plus the loop's average trip count and its share
    of whole-program execution time.

    A benchmark's loops are mixed with invocation rates [reps] chosen so
    that each loop contributes its declared [weight] share of the
    reference run's time, and the whole reference run is normalised to
    {!t_norm_ns}. *)

open Hcv_support
open Hcv_ir
open Hcv_machine
open Hcv_energy
open Hcv_sched

type loop_profile = {
  loop : Loop.t;
  sched : Schedule.t;  (** homogeneous reference schedule *)
  ii_hom : int;
  mii_hom : int;  (** the lower bound the scheduler started from *)
  it_length_cycles : int;  (** iteration length, reference cycles *)
  n_comms : int;  (** per iteration *)
  lifetime_ns : float;  (** summed lifetimes per iteration, all clusters *)
  exec_ns : float;  (** one invocation (trip iterations) on the reference *)
  reps : float;  (** invocations per normalised reference run *)
  activity : Activity.t;  (** one invocation on the reference machine *)
  rec_mii : int;  (** recurrence MII — DDG-only, cached for selection *)
  fu_demands : (Opcode.fu_kind * int) list;
      (** nonzero {!Ddg.fu_demand} entries, cached for selection *)
}

type t = {
  machine : Machine.t;
  config : Opconfig.t;  (** the reference homogeneous configuration *)
  loops : loop_profile list;
  activity : Activity.t;  (** whole normalised run *)
}

val t_norm_ns : float
(** Normalised reference-run duration (1e6 ns). *)

val activity_of_schedule : Schedule.t -> trip:int -> Activity.t
(** Activity of one invocation: per-iteration counts scaled by the trip
    count, execution time from the modulo-schedule formula. *)

val profile :
  ?obs:Hcv_obs.Trace.span -> machine:Machine.t -> loops:Loop.t list -> unit
  -> (t, Hcv_obs.Diag.t) result
(** Schedule every loop on the reference homogeneous configuration (1
    ns / 1 V) and aggregate.  Fails with a [reference-unschedulable]
    diagnostic (context: the loop name) if some loop cannot be
    scheduled, or [no-loops] on an empty list.  [?obs] counts
    ["profile.loops"]. *)

val scale_cycle_time : t -> Q.t -> Activity.t
(** Whole-run activity of a *homogeneous* design with a different cycle
    time: the schedule (and all counts) are identical, only time scales
    (paper §5.1). *)
