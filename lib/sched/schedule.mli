(** Modulo schedules and their validation.

    A schedule assigns every instruction a (cluster, absolute cycle)
    pair and lists the inter-cluster value transfers of one kernel
    iteration.  A transfer ships the value of [src] (of the current
    iteration) to [dst_cluster] over a register bus starting at ICN
    cycle [bus_cycle]; all consumers of that value in that cluster share
    it when their timing allows. *)

open Hcv_support
open Hcv_ir
open Hcv_machine

type placement = { cluster : int; cycle : int }
type transfer = { src : Instr.id; dst_cluster : int; bus_cycle : int }

type t = {
  loop : Loop.t;
  machine : Machine.t;
  clocking : Clocking.t;
  placements : placement array;
  transfers : transfer list;
}

val make :
  loop:Loop.t -> machine:Machine.t -> clocking:Clocking.t
  -> placements:placement array -> transfers:transfer list -> t
(** Structural construction only; run {!validate} to check
    semantics. *)

val start_time : t -> Instr.id -> Q.t
(** Issue time within iteration 0, ns. *)

val def_time : t -> Instr.id -> Q.t
(** Time the instruction's value is available (issue + latency at the
    effective cycle time), ns. *)

val it_length : t -> Q.t
(** Iteration length: latest value-definition or transfer-arrival time
    of one iteration (ns). *)

val stage_count : t -> int
(** ceil(it_length / IT). *)

val exec_time_ns : t -> trip:int -> float
(** [(trip - 1) * IT + it_length]. *)

val n_comms : t -> int
(** Bus transfers per kernel iteration. *)

val per_cluster_ins_energy : t -> float array
(** Summed Table-1 relative energies of the instructions each cluster
    executes in one iteration. *)

val n_mem : t -> int

val lifetimes_ns : t -> Q.t array
(** Per-cluster sum of value lifetimes (ns): each value lives in its
    producer's register file from definition to last local read or bus
    send, and in every destination cluster from bus arrival to last read
    there.  The register-pressure check compares this against
    [registers * IT]. *)

val validate : t -> (unit, string list) result
(** Check every dependence (with the {!Timing} rules), FU and bus
    capacity per modulo slot, transfer timing, and per-cluster register
    pressure (sum of value lifetimes within a cluster must not exceed
    [registers * IT]).  Returns all violations found. *)

val pp : Format.formatter -> t -> unit
