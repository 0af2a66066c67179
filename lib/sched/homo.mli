(** Homogeneous clustered modulo scheduling — the state-of-the-art
    baseline the paper builds on ([2][3]): graph-partitioning cluster
    assignment driven by pseudo-schedule scores, then iterative modulo
    scheduling, retrying at increasing II until a valid schedule is
    found. *)

open Hcv_support
open Hcv_ir
open Hcv_machine

type stats = {
  ii : int;  (** final initiation interval (cycles) *)
  tries : int;  (** IIs attempted *)
  mii : int;  (** lower bound at which the search started *)
}

val schedule :
  machine:Machine.t -> cycle_time:Q.t -> loop:Loop.t -> ?max_tries:int
  -> ?seed:int -> unit -> (Schedule.t * stats, string) result
(** Schedule [loop] on [machine] with every domain at [cycle_time].
    [max_tries] (default 64) bounds the IIs attempted above the MII.
    A clocking outside {!Timing.Memo}'s integer time base is an error
    naming [tick-range]. *)
