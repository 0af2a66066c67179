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

val float_of_string : string -> float option

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

val opconfig_to_json : Opconfig.t -> Jsonx.t
val opconfig_of_json : machine:Machine.t -> Jsonx.t -> Opconfig.t option
(** Rebinds the configuration to [machine]; [None] on shape mismatch or
    malformed JSON. *)

val activity_to_json : Activity.t -> Jsonx.t
val activity_of_json : Jsonx.t -> Activity.t option

val floats_to_string : float list -> string
(** A JSON list of exact floats — the value format of sweeps whose
    cells reduce to a few numbers (the bench ablations). *)

val floats_of_string : string -> float list option
