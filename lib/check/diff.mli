(** Differential fuzz drivers.

    For every generated {!Gen.case} this module runs the heterogeneous
    scheduler and cross-checks its output along independent paths:

    - {!Legal.verify} must accept the schedule (and must agree with the
      production [Schedule.validate] — the two are separate derivations
      of the same rules, so any disagreement is a bug in one of them);
    - {!Legal.lifetime_sums} must equal [Schedule.lifetimes_ns] exactly;
    - {!Legal.verify_clocking} must accept the chosen clocking against
      the operating configuration and its frequency grid;
    - the event-driven {!Simulator} replay must report no violations,
      and its exact execution time must equal the modulo-schedule
      formula [(trip - 1) * IT + iteration_length];
    - the §3.1 energy of the simulator-measured activity must match the
      energy of the analytic activity within [tol.energy_rel]
      (realisable configurations only — the model has no threshold
      voltage otherwise);
    - the §3.2 compile-time {!Estimate} of the loop's execution time
      must fall within [tol.est_ratio_lo, tol.est_ratio_hi] of the
      scheduled time (skipped when the reference profile itself cannot
      be built);
    - the Pareto frontier of the §3.3 selection sweep
      ({!Hcv_core.Select.frontier_heterogeneous}) must be sound (no
      member dominates another), complete (every realisable swept point
      is dominated by or ties a member) and scalarisation-consistent
      (its ED² corner is byte-identical to [select_heterogeneous]'s
      choice; both paths must agree on whether a choice exists at
      all) — skipped with the estimate check when the profile cannot be
      built.

    A case the scheduler *rejects* is not a failure — random machines
    are allowed to be unschedulable — but the rejection must be a clean
    [Error], never an exception. *)

open Hcv_explore

type tolerances = {
  energy_rel : float;
      (** relative error allowed between measured- and analytic-activity
          energy *)
  est_ratio_lo : float;  (** estimate/scheduled time lower bound *)
  est_ratio_hi : float;  (** estimate/scheduled time upper bound *)
}

val default_tolerances : tolerances

type category =
  | Crash  (** the scheduler (or a checker) raised *)
  | Illegal  (** {!Legal.verify} rejected the schedule *)
  | Clocking  (** {!Legal.verify_clocking} rejected the clocking *)
  | Oracle_disagreement
      (** [Schedule.validate] and {!Legal.verify} disagree, or the two
          lifetime derivations differ *)
  | Sim_violation  (** the simulator found a runtime violation *)
  | Sim_time_mismatch  (** replay time differs from the IT formula *)
  | Energy_mismatch  (** measured vs analytic energy out of band *)
  | Estimate_out_of_band  (** §3.2 time estimate out of band *)
  | Frontier_mismatch
      (** the selection frontier is unsound/incomplete, or its ED²
          corner differs from [select_heterogeneous] *)

val category_to_string : category -> string

type outcome = {
  scheduled : bool;
  energy_checked : bool;
  estimate_checked : bool;
  frontier_checked : bool;
  problems : (category * string) list;  (** empty when the case passed *)
}

val check_case : ?tol:tolerances -> Gen.case -> outcome
(** Run every cross-check on one case.  Never raises: scheduler or
    checker exceptions become [Crash] problems. *)

type failure = {
  seed : int;
  category : category;
  detail : string;
  repro : string;  (** {!Gen.print_case} of the (shrunk) failing case *)
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

val run :
  ?pool:Pool.t -> ?obs:Hcv_obs.Trace.span -> ?tol:tolerances -> ?shrink:bool
  -> ?shrink_checks:int -> seed:int -> cases:int -> unit -> report
(** Fuzz [cases] cases derived deterministically from [seed] (the same
    cases regardless of [pool] size).  Each failing case is shrunk with
    {!Gen.shrink} (keep = same failure category; at most [shrink_checks]
    re-checks, default 150) unless [shrink] is [false].  [?obs] counts
    ["fuzz.cases"], ["fuzz.scheduled"], ["fuzz.unschedulable"] and one
    ["fuzz.fail.<category>"] counter per failure — all deterministic for
    a fixed seed, whatever the pool size. *)

val failure_json : failure -> Jsonx.t
(** One JSONL record: seed, category, detail and the printable repro.
    The seed is a string of its decimal digits, which a JSON number
    would round past 2{^53}. *)

val pp_report : Format.formatter -> report -> unit
(** Bench-style summary table: case counts, per-category failures. *)
