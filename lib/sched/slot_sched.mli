(** Slot assignment: iterative modulo scheduling of a partitioned loop
    onto per-domain modulo reservation tables.

    Given a clocking (IT + per-domain IIs) and a cluster assignment,
    place every instruction at an absolute cycle of its cluster,
    scheduling inter-cluster value transfers on the register buses.
    Follows Rau's iterative modulo scheduling: instructions are placed
    highest-priority-first (longest time-path through the DDG under the
    current IT); when no conflict-free slot exists in one II window, the
    instruction is force-placed and conflicting instructions are
    evicted, within an operation budget. *)

open Hcv_ir
open Hcv_machine

type failure =
  | Budget_exhausted  (** eviction budget spent — raise the IT *)
  | Positive_cycle
      (** a recurrence cannot meet the IT with this partition (some of
          its instructions sit on too-slow clusters) *)
  | Register_pressure  (** schedule found but lifetimes exceed registers *)

val failure_to_string : failure -> string

val run :
  memo:Timing.Memo.t -> machine:Machine.t -> loop:Loop.t
  -> assignment:int array -> ?budget_factor:int -> unit
  -> (Schedule.t, failure) result
(** Schedule at the memo's clocking, in its integer ticks.
    [budget_factor] (default 16) bounds total placement attempts at
    [budget_factor * n_instrs].  A returned schedule always passes
    {!Schedule.validate}. *)
