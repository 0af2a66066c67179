(** Multi-objective Pareto frontiers over predicted design points.

    The paper's selector (§3.3/§5.1) scalarises to ED² alone;
    heterogeneous scheduling is more naturally a Pareto exploration
    over performance, power and energy (Coutinho et al., Mack et al. —
    see PAPERS.md).  This module is the small pure core behind
    {!Select.frontier_heterogeneous}: objective vectors derived from a
    predicted (time, energy) pair, pluggable objective sets, cap
    constraints ("fastest under an energy cap", "lowest energy under a
    deadline"), and a deterministic non-dominated fold.

    {2 Dominance}

    Over an objective set [O], point [a] {e dominates} [b] iff
    [value a o <= value b o] for every [o] in [O] and the inequality is
    strict for at least one.  A frontier is the set of offered points
    no other offered point dominates, kept in offer order — so for a
    fixed offer sequence the frontier is a pure function of the inputs,
    whatever worker count produced the scores.

    {2 Scalarisation corners}

    For any objective [o] in the set, {!min_by} returns the earliest
    member minimising [o].  When [Ed2] is in the objective set and all
    points have positive time and energy, the earliest offered point
    with minimal ED² is itself never dominated (dominance forces a
    strictly smaller ED²), so the ED² corner of the unconstrained
    frontier is {e exactly} the choice of the paper's scalarised
    selector — the legacy [select_heterogeneous] is the
    [min_by Ed2] corner of {!Select.frontier_heterogeneous}. *)

type objective = Time | Energy | Ed2 | Edp | Power

val all_objectives : objective list
(** Canonical order: time, energy, ed2, edp, power. *)

val objective_name : objective -> string
val objective_of_string : string -> objective option

type vec = {
  time_ns : float;  (** predicted execution time, ns *)
  energy : float;  (** predicted energy *)
  ed2 : float;  (** [energy * time^2] *)
  edp : float;  (** [energy * time] *)
  power : float;
      (** mean power [energy / time] — the §3 model is time-aggregate,
          so mean power stands in for peak power *)
}

val vec : time_ns:float -> energy:float -> vec
(** Derives the ED²/EDP/power components.  The derivations use the
    same operation order as {!Select}'s predictions, so the ED²
    component of a choice's vector is bit-identical to its
    [predicted_ed2]. *)

val value : vec -> objective -> float

(** {2 Constraints} *)

type cap = { cap : objective; bound : float }
(** Feasibility constraint: [value v cap <= bound]. *)

val cap_of_string : string -> (cap, string) result
(** Parses ["OBJECTIVE<=BOUND"] (also accepted: ["OBJECTIVE=BOUND"]). *)

val cap_to_string : cap -> string
(** ["obj<=bound"], bound in {!Hcv_support.Floatfmt.compact} form. *)

val feasible : caps:cap list -> vec -> bool
(** All caps hold.  A vector with a NaN component is never feasible
    under a cap on that component. *)

val dominates : objectives:objective list -> vec -> vec -> bool
(** [dominates ~objectives a b]: [a] weakly better everywhere on
    [objectives], strictly better somewhere. *)

(** {2 Objective-set + constraint specifications} *)

type spec = private { objectives : objective list; caps : cap list }
(** Canonical: objectives deduplicated in {!all_objectives} order, caps
    sorted — equal specs have equal keys. *)

val spec : ?objectives:objective list -> ?caps:cap list -> unit -> spec
(** Defaults: every objective, no caps.
    @raise Invalid_argument on an empty objective list. *)

val default_spec : spec

val spec_key : spec -> string
(** Deterministic content-key fragment (exact ["%h"] bounds) — what
    {!Sweep.cell_key} folds in for frontier cells. *)

val spec_to_json : spec -> Hcv_explore.Jsonx.t

val spec_fields : spec Hcv_explore.Decode.fields
(** ["objectives"] (default all) and ["caps"] ([[NAME, BOUND],...],
    default none), as a [frontier] request and {!spec_to_json} carry them. *)

(** {2 Frontiers} *)

type 'a entry = {
  item : 'a;
  fvec : vec;
  index : int;  (** 0-based offer order *)
}

type 'a t

val empty : spec -> 'a t

val add : 'a t -> vec:vec -> 'a -> 'a t
(** Offer one point: dropped when it violates a cap or an existing
    member dominates it; otherwise it joins and evicts the members it
    dominates.  Points with equal vectors never dominate each other, so
    predicted ties all stay on the frontier. *)

val of_list : spec -> ('a * vec) list -> 'a t
(** {!add} folded left to right. *)

val spec_of : 'a t -> spec
val members : 'a t -> 'a entry list
(** Non-dominated feasible points, ascending {!entry.index}. *)

val size : 'a t -> int
val considered : 'a t -> int
(** Points offered, including dropped ones. *)

val infeasible : 'a t -> int
(** Points dropped by the caps alone. *)

val min_by : 'a t -> objective -> 'a entry option
(** Earliest member strictly minimising the objective; [None] on an
    empty frontier. *)

val pp_vec : Format.formatter -> vec -> unit
(** Locale-stable ({!Hcv_support.Floatfmt}) rendering of the five
    components. *)
