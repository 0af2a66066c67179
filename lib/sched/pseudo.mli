(** Pseudo-schedules (paper §4.1.2, following Aletà et al. PACT'02).

    A pseudo-schedule is a fast, greedy, no-backtracking placement of a
    partitioned loop used to *estimate* the characteristics of the final
    schedule while refining a partition: iteration length, number of
    communications, register pressure and (approximate) schedulability.
    It never fails: instructions that do not fit are placed anyway
    (overbooking the reservation tables) and counted in [overflow].

    There is one placement algorithm, {!Workspace.eval}.  A partitioner
    scores hundreds of assignments per clocking, so it evaluates them
    into one {!Workspace.t} and reads the outcome's scalars; {!estimate}
    evaluates into a fresh workspace and materialises the placement as
    a {!Schedule.t}. *)

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
    clocking and in its integer ticks: {!Workspace.eval} into a fresh
    workspace, then {!Workspace.estimate}.

    [?obs] (default {!Hcv_obs.Trace.null}, which costs nothing on this
    hot path) counts every evaluation (["pseudo.evals"]) and the
    infeasible ones (["pseudo.infeasible"]). *)

val score : t -> float
(** Schedulability-first scalar for homogeneous partition refinement
    (lower is better): overflow and broken recurrences dominate, then
    register feasibility, then communications, then iteration length. *)

(** Every array one evaluation uses, plus its reservation tables, sized
    once for one clocking (a {!Timing.Memo.t}), machine and loop — that
    is, for one IT attempt of a scheduler.

    {!eval} resets the tables in place ({!Mrt.clear}), invalidates the
    bus-search caches by bumping an epoch, and clears only the transfer
    slots the previous evaluation used, so a warm evaluation allocates
    a constant number of words whatever the loop's size: the placement
    pass takes no closure and reads the DDG's CSR arrays directly.

    A workspace is mutable scratch: build it inside the attempt that
    uses it and drop it with the attempt.  Never share one between
    domains or keep one at module level. *)
module Workspace : sig
  type estimate := t
  type t

  val create :
    memo:Timing.Memo.t -> obs:Hcv_obs.Trace.span -> machine:Machine.t
    -> loop:Loop.t -> t
  (** [obs] receives every evaluation's counters, as in {!estimate}. *)

  val eval : t -> int array -> unit
  (** Place an assignment (one cluster per instruction), overwriting
      the previous evaluation.  The assignment is copied: the caller
      may mutate its array afterwards. *)

  val feasible : t -> bool
  val n_comms : t -> int
  val it_length : t -> Q.t

  val score : t -> float
  (** {!Pseudo.score} of the last evaluation, from the same formula. *)

  val estimate : t -> estimate
  (** The last evaluation, materialised. *)
end
