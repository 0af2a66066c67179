(** The timing rules shared by the scheduler, the schedule validator and
    the cycle simulator.

    Times are measured from the start of the kernel's iteration 0.  The
    functions below state the rules in exact rational ns: the schedule
    validator, the simulator and the legality checker work in them.  The
    schedulers' hot paths work in {!Memo}'s integer ticks of one
    clocking instead, which give the same answers exactly.

    Rules:
    - an instruction issued at cycle [k] of cluster [c] starts at
      [k * ct_c] and defines its value at [(k + latency) * ct_eff],
      where [ct_eff = ct_c] except for memory operations, which advance
      at [max ct_c ct_cache] per cycle (the cache cannot deliver faster
      than its own clock; the paper always clocks the cache with the
      fastest cluster so this never bites in the evaluation);
    - a same-cluster dependence of distance [d] requires
      [start(dst) + d*IT >= def_time(src)];
    - a cross-cluster value transfer enters a synchronisation queue for
      one ICN cycle, occupies a bus for [Icn.latency_cycles] ICN cycles
      starting at bus cycle [b], and arrives at
      [(b + latency_cycles) * ct_icn]; the consumer then requires
      [start(dst) + d*IT >= arrival];
    - cross-cluster dependences that carry no value (anti/output/memory
      ordering) need no bus but pay one ICN cycle of synchronisation:
      [start(dst) + d*IT >= def_time(src) + ct_icn]. *)

open Hcv_support
open Hcv_ir

val eff_ct : Clocking.t -> cluster:int -> Instr.t -> Q.t
val start_time : Clocking.t -> cluster:int -> cycle:int -> Q.t
val def_time : Clocking.t -> cluster:int -> cycle:int -> Instr.t -> Q.t

val earliest_bus_cycle : Clocking.t -> def_time:Q.t -> int
(** First bus cycle usable by a value defined at [def_time] (includes
    the one-cycle synchronisation penalty). *)

val latest_bus_cycle : Clocking.t -> buslat:int -> need:Q.t -> int
(** Last bus cycle whose arrival is no later than [need] (may be
    negative, meaning no bus cycle can make it). *)

val bus_arrival : Clocking.t -> buslat:int -> bus_cycle:int -> Q.t

val earliest_cycle : Clocking.t -> cluster:int -> ready:Q.t -> int
(** First issue cycle of the cluster starting at or after [ready]
    (never negative). *)

val sync_penalty : Clocking.t -> Q.t
(** One ICN cycle, the cost of crossing clock domains without a bus. *)

(** The integer time base of one fixed clocking, built once per IT
    attempt.  Every domain's cycle time is [IT / II] with [II] integral
    (paper §4), so with [D] the lcm of the clocking's denominators every
    time a scheduler forms is a whole number of ticks of [1/D] ns.  The
    memo holds the cycle times, IT and the [eff_ct * latency] offsets as
    [int] ticks; {!Pseudo} and {!Slot_sched} place with native int
    arithmetic and convert to ns only where a value leaves them. *)
module Memo : sig
  type t

  val max_ticks : int
  (** [2^40], checked by {!create}: the bound on [D] and on every tick
      count of the clocking, IT included.  The schedulers' arithmetic
      goes unchecked: it multiplies a tick count only by a cycle number,
      a distance, a latency or a register count, and its largest value,
      one cluster's sum of lifetimes, is below [n * L] ITs for [n]
      instructions in a schedule [L] ITs long (cycle times never exceed
      IT), so it is exact in 63 bits while [n * L < 2^22]. *)

  val create : Clocking.t -> (t, Hcv_obs.Diag.t) result
  (** Errors with [tick-range] (context: the IT and the bound) when a
      time of the clocking is not positive or passes the bound. *)

  val clocking : t -> Clocking.t
  val it : t -> int

  val icn_ct : t -> int
  (** One ICN cycle: also the {!val:sync_penalty}. *)

  val to_ns : t -> int -> Q.t

  val lat_offset : t -> cluster:int -> Opcode.fu_kind -> int -> int
  (** [eff_ct * lat] for an arbitrary (edge) latency. *)

  val def_offset : t -> cluster:int -> Instr.t -> int
  (** [eff_ct * latency] — the instruction's definition delay. *)

  val start_time : t -> cluster:int -> cycle:int -> int
  val earliest_bus_cycle : t -> def_time:int -> int
  val latest_bus_cycle : t -> buslat:int -> need:int -> int
  val bus_arrival : t -> buslat:int -> bus_cycle:int -> int
  val earliest_cycle : t -> cluster:int -> ready:int -> int
  (** The functions of the same name above, in ticks. *)
end
