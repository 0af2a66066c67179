(** Modulo reservation tables.

    One table per cluster (II_C columns, one row per functional-unit
    kind with the cluster's capacity) plus one for the ICN buses (II_ICN
    columns, capacity = number of buses).  An operation issued at
    absolute cycle [k] occupies column [k mod II] of its domain. *)

open Hcv_ir
open Hcv_machine

type t

val create : Machine.t -> Clocking.t -> t
(** Empty tables for the given clocking.
    @raise Invalid_argument on cluster-count mismatch. *)

val fu_available : t -> cluster:int -> kind:Opcode.fu_kind -> cycle:int -> bool
val fu_reserve : t -> cluster:int -> kind:Opcode.fu_kind -> cycle:int -> unit
(** @raise Invalid_argument when the slot is full (callers must check
    {!fu_available} first). *)

val fu_release : t -> cluster:int -> kind:Opcode.fu_kind -> cycle:int -> unit
(** @raise Invalid_argument when the slot is already empty. *)

val bus_available : t -> cycle:int -> bool
val bus_reserve : t -> cycle:int -> unit
val bus_release : t -> cycle:int -> unit

val bus_first_free : t -> earliest:int -> latest:int -> int
(** Earliest cycle in [[max 0 earliest, latest]] whose bus slot has
    spare capacity, or [-1] when there is none — the same answer as a
    linear [bus_available] scan, but starting from an internally
    tracked verified-full prefix, so repeated searches over a
    mostly-full window are O(1). *)

val fu_slots_free : t -> cluster:int -> kind:Opcode.fu_kind -> int
(** Number of modulo slots of one FU row with spare capacity.  Zero
    means [fu_available] is false at every cycle, so a placement scan
    can fail immediately. *)

val bus_slots_free : t -> int
(** Number of bus modulo slots with spare capacity.  Zero means no new
    transfer can ever be created (and none can move, so the table can
    no longer change). *)

val fu_used : t -> cluster:int -> kind:Opcode.fu_kind -> slot:int -> int
(** Occupancy of one column (for tests and pretty-printing). *)

val bus_used : t -> slot:int -> int

val clear : t -> unit
(** Empty every table in place, as {!create} leaves them, without
    allocating. *)

val pp : Format.formatter -> t -> unit
