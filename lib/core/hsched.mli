(** Heterogeneous modulo scheduling (paper §4, Fig. 5).

    Given an operating configuration (per-domain maximum frequencies
    fixed by the §3.3 selection), schedule a loop:

    1. IT := MIT;
    2. select a synchronisable (frequency, II) pair per domain — on
       failure increase the IT ("synchronisation problem");
    3. pre-place critical recurrences: recurrences that do not fit every
       cluster's II are placed, most critical first, in the *slowest*
       cluster that can still host them (§4.1.1);
    4. partition the remaining DDG with the multilevel scheme, scoring
       candidate partitions by the ED² predicted from their
       pseudo-schedule and the §3.1 energy model (§4.1.2);
    5. run slot assignment; on failure increase the IT and restart. *)

open Hcv_support
open Hcv_ir
open Hcv_machine
open Hcv_energy
open Hcv_sched

type stats = {
  it : Q.t;  (** final initiation time *)
  mit : Q.t;
  tries : int;  (** IT candidates attempted *)
  sync_bumps : int;  (** IT increases due to frequency-grid misses *)
  prePlaced : int;  (** instructions fixed by recurrence pre-placement *)
}

val preplace_recurrences :
  ?obs:Hcv_obs.Trace.span -> config:Opconfig.t -> clocking:Clocking.t
  -> Ddg.t -> ((Instr.id * int) list, Hcv_obs.Diag.t) result
(** The §4.1.1 pre-placement: assignments for every instruction in a
    recurrence whose minimum II exceeds the II of at least one cluster.
    Errors with [preplace-no-cluster] (context: the recurrence and the
    IT) when some recurrence fits no cluster at this clocking.  [?obs]
    counts ["preplace.placed"] / ["preplace.rejects"]. *)

type score_mode =
  | Ed2  (** the paper's §4.1.2 refinement objective *)
  | Schedulability
      (** the homogeneous baseline's objective ({!Hcv_sched.Pseudo.score});
          used by the ablation benches to isolate the value of
          energy-aware refinement *)

val partition_scorer :
  ctx:Model.ctx -> config:Opconfig.t -> loop:Loop.t -> memo:Timing.Memo.t
  -> score_mode -> int array -> float
(** The score {!schedule} hands the partitioner at one IT attempt (the
    memo's clocking), beneath its budget guard and score memo.  Each
    call evaluates the assignment into one {!Hcv_sched.Pseudo.Workspace}
    built with the function; [Ed2] then prices the workspace's scalars
    and the assignment's per-cluster instruction energy with
    {!Model.ed2_of}, and builds no {!Schedule.t} and no activity record.
    Its value is bit-identical to [Model.ed2 ctx ~config
    (Profile.activity_of_schedule est.schedule ~trip)] for a feasible
    estimate [est] of the same assignment, and [1e14 +. Pseudo.score
    est] otherwise.  [schedule] computes the energy coefficients once
    per call, lazily; this function, once per function. *)

val schedule :
  ?obs:Hcv_obs.Trace.span -> ctx:Model.ctx -> config:Opconfig.t
  -> loop:Loop.t -> ?max_tries:int -> ?seed:int -> ?preplace:bool
  -> ?score_mode:score_mode -> ?score_memo:bool -> ?budget:int -> unit
  -> (Schedule.t * stats, Hcv_obs.Diag.t) result
(** [max_tries] (default 64) bounds IT candidates above the MIT.
    [preplace] (default true) and [score_mode] (default [Ed2]) are
    ablation switches for the two heterogeneous-specific ingredients of
    §4.1.  [score_memo] (default true) memoises the partition-scoring
    function by exact assignment within each IT attempt; it never
    changes the result (the score is pure per clocking) and exists as a
    switch for the equivalence tests.

    [budget] (default unlimited) caps the number of {e raw} partition
    scorings — pseudo-schedule evaluations — across the whole call, the
    unit that dominates the scheduler's running time.  Memo hits are
    free, so a budget that covers every distinct assignment is
    invisible; a pathological loop/config pair that would otherwise
    churn through the full [max_tries] IT ladder instead degrades in
    bounded work with a [budget-exhausted] diagnostic (context: loop,
    budget, MIT), which {!Pipeline} folds into its estimate-fallback
    path like any other scheduling failure.

    Errors with [unschedulable] (context: loop, MIT, [max_tries] and the
    last failure cause) when the IT budget is exhausted, and with
    {!Hcv_sched.Timing.Memo.create}'s [tick-range] (plus the loop) when
    an attempt's clocking does not fit the integer time base.  [?obs] counts
    per-phase events: ["hsched.attempts"], ["hsched.clock_rejects"],
    ["hsched.slot.<cause>"] per slot-scheduler failure,
    ["hsched.budget_exhausted"], plus the {!Hcv_sched.Partition},
    {!Hcv_sched.Pseudo} and pre-placement counters of the phases it
    drives. *)
