(** Trace serialization: {!Hcv_obs.Trace.node} to/from {!Jsonx}, plus
    the JSONL rendering behind [--trace FILE].

    Two views of a trace:
    - the {b deterministic} view ([wall:false], the default) — span
      names, attrs and counters only.  Byte-identical for any worker
      count and cache state, so it can be golden-pinned and diffed;
    - the {b timed} view ([wall:true]) — adds the [wall_us] duration
      and the volatile gauges as the *last* fields of every object, so
      a consumer (or CI) can strip them mechanically.

    The JSONL form is one object per span in pre-order with an explicit
    [depth]; depth + order reconstruct the tree unambiguously. *)

open Hcv_obs

val json_of_node : ?wall:bool -> Trace.node -> Jsonx.t
(** Nested object form (children inline), used for cache round-trips.
    Default [wall:false]. *)

val node : Trace.node Decode.t
(** Reads either view of {!json_of_node}; absent wall/volatile fields
    decode as zero/empty. *)

val jsonl : ?wall:bool -> Trace.node -> string list
(** Pre-order, one line per span: [{"depth":d,"span":name,...}]. *)

val write_jsonl : ?wall:bool -> path:string -> Trace.node -> unit
(** Write (truncate) [path] with {!jsonl} lines. *)
