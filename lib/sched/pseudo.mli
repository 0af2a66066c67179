(** Pseudo-schedules (paper §4.1.2, following Aletà et al. PACT'02).

    A pseudo-schedule is a fast, greedy, no-backtracking placement of a
    partitioned loop used to *estimate* the characteristics of the final
    schedule while refining a partition: iteration length, number of
    communications, register pressure and (approximate) schedulability.
    It never fails: instructions that do not fit are placed anyway
    (overbooking the reservation tables) and counted in [overflow]. *)

open Hcv_support
open Hcv_ir
open Hcv_machine

type t = {
  schedule : Schedule.t;  (** the greedy placement (may be invalid) *)
  overflow : int;
      (** instructions for which no conflict-free slot existed *)
  back_violations : int;
      (** loop-carried dependences the greedy placement breaks *)
  regs_ok : bool;
  n_comms : int;  (** equals [Schedule.n_comms schedule], precomputed *)
  it_length : Q.t;
      (** equals [Schedule.it_length schedule], precomputed — {!score}
          reads these instead of re-deriving every def time from the
          placements *)
}

val feasible : t -> bool
(** No overflow, no violated back edge, registers fit. *)

val estimate :
  memo:Timing.Memo.t -> ?obs:Hcv_obs.Trace.span -> machine:Machine.t
  -> loop:Loop.t -> assignment:int array -> unit -> t
(** Greedily place every instruction on its assigned cluster in
    topological order (earliest dependence-ready cycle, scanning one II
    window, reserving buses for cross-cluster values), at the memo's
    clocking and in its integer ticks.

    [?obs] (default {!Hcv_obs.Trace.null}, which costs nothing on this
    hot path) counts every evaluation (["pseudo.evals"]) and the
    infeasible ones (["pseudo.infeasible"]). *)

val score : t -> float
(** Schedulability-first scalar for homogeneous partition refinement
    (lower is better): overflow and broken recurrences dominate, then
    register feasibility, then communications, then iteration length. *)

