(** End-to-end evaluation of one benchmark (the flow behind the paper's
    Figures 6-9), in six named stages:

    1. [profile] — profile the loops on the reference homogeneous
       machine;
    2. [context] — derive the energy-model context from the baseline
       breakdown;
    3. [homo-optimum] — find the *optimum homogeneous* design (§5.1),
       the denominator of every normalised result;
    4. [select] — select the heterogeneous (and uniform fallback)
       configuration with the §3.3 models;
    5. [schedule] — modulo-schedule every loop on the candidate
       configurations with the §4 heterogeneous scheduler;
    6. [evaluate] — evaluate both designs with the §3.1 energy model,
       using measured (scheduled) activity for the heterogeneous
       machine.

    Each stage runs in a ["stage:<name>"] span under the caller's [?obs]
    and failures are {!Hcv_obs.Diag.t}s stamped with the failing stage's
    name. *)

open Hcv_energy
open Hcv_ir
open Hcv_machine
open Hcv_sched

type loop_result = {
  profile : Profile.loop_profile;
  schedule : Schedule.t;  (** heterogeneous schedule *)
  stats : Hsched.stats;
}

type t = {
  name : string;
  profile : Profile.t;
  ctx : Model.ctx;
  homo : Select.choice;
  hetero : Select.choice;
  frontier : Select.choice Frontier.t option;
      (** Pareto frontier of the §3.3 selection sweep — present only
          when [run] was given a [?frontier] spec (the optional
          [frontier] stage) *)
  loop_results : loop_result list;
  fallbacks : int;
      (** loops that failed heterogeneous scheduling and were accounted
          with the §3.2 estimate instead (0 in a healthy run) *)
  fallback_causes : (string * Hcv_obs.Diag.t) list;
      (** (loop name, diagnostic) per fallback, in loop order — also
          surfaced by {!pp_summary} and as ["fallback.<code>"] counters
          in the trace *)
  hetero_activity : Activity.t;
  ed2_homo : float;
  ed2_hetero : float;
  ed2_ratio : float;  (** hetero / optimum homogeneous; < 1 is a win *)
  time_ratio : float;
  energy_ratio : float;
}

val stage_names : string list
(** The six always-on stage names, in execution order.  When a
    [?frontier] spec is passed to {!run} an additional ["frontier"]
    stage runs between [select] and [schedule]. *)

val run :
  ?pool:Hcv_explore.Pool.t -> ?budget:int -> ?frontier:Frontier.spec
  -> ?params:Params.t -> ?obs:Hcv_obs.Trace.span -> machine:Machine.t
  -> name:string -> loops:Loop.t list -> unit -> (t, Hcv_obs.Diag.t) result
(** [?pool] parallelises the §3.3 configuration-selection sweeps on the
    given worker pool without changing their result (see {!Select}).
    Don't pass a pool when the [run] call itself executes on a pool
    worker — the nested sweep would then run inline anyway.

    [?budget] (default unlimited) bounds the dominant work units of the
    expensive stages: the number of design points each §3.3 selection
    sweep scores ({!Select}) and the number of raw partition scorings
    each per-loop §4 scheduling call may spend ({!Hsched.schedule}).  A
    loop that exhausts its scheduling budget degrades to the §3.2
    estimate through the normal fallback path, with the
    [budget-exhausted] diagnostic recorded in [fallback_causes] — the
    run still completes.

    [?frontier] (default absent) inserts the optional [frontier] stage:
    {!Select.frontier_heterogeneous} runs over the same selection sweep
    under the given spec and the result lands in [t.frontier].  Without
    it the span tree is exactly the six default stages, so existing
    golden traces are unaffected.

    [?obs] (default {!Hcv_obs.Trace.null}) opens one span per stage,
    one ["candidate:<tag>"] span per scheduled candidate configuration
    and one ["loop:<name>"] span per scheduled loop; all the counters
    beneath are deterministic (identical for any worker count and cache
    state). *)

val measure_config :
  ?preplace:bool -> ?score_mode:Hsched.score_mode -> ?budget:int
  -> ?obs:Hcv_obs.Trace.span -> ctx:Model.ctx -> machine:Machine.t
  -> profile:Profile.t -> config:Opconfig.t -> unit
  -> Activity.t * float * int
(** Schedule every profiled loop under an arbitrary configuration
    (optionally with the §4.1 ablation switches) and return the measured
    activity, its model ED2 and the number of estimate fallbacks — the
    building block of the ablation benches. *)

val pp_summary : Format.formatter -> t -> unit
(** One line: name, ED²/time/energy ratios, and — when loops fell back
    to the estimate — the per-loop diagnostic codes. *)
