(** Key derivation and serialisation helpers shared by the sweep
    codecs (the higher layers add codecs for their own result types —
    e.g. [Hcv_core.Sweep] for selection choices and pipeline outcomes).

    Floats embedded in keys or values use the hexadecimal ["%h"] form:
    exact, locale-independent, and stable across runs — two cells get
    the same key iff their inputs are bit-identical. *)

open Hcv_support
open Hcv_machine
open Hcv_energy

val digest : string list -> string
(** Content address of a cell: hex MD5 of the NUL-joined parts. *)

val float_to_string : float -> string
(** Exact ["%h"] encoding. *)

val q_to_string : Q.t -> string
val q_of_string : string -> Q.t option

val machine_key : Machine.t -> string
(** Fingerprint of the machine shape that affects sweep results: name
    (which encodes the preset and bus count), cluster count and
    frequency grid.  Machines whose clusters are not all the paper
    design (or whose ICN latency differs) additionally append the full
    per-cluster FU/register signature and ICN shape — append-only, so
    paper-machine keys are byte-identical to earlier releases. *)

val params_key : Params.t -> string

val hex_float : float Decode.t
(** A {!float_to_string} string. *)

val opconfig_to_json : Opconfig.t -> Jsonx.t

val opconfig : (Machine.t -> Opconfig.t option) Decode.t
(** Reads what {!opconfig_to_json} writes; the result rebinds it to a
    machine, [None] when the cluster count or an operating point does
    not fit it. *)
