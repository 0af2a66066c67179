(** Structured diagnostics: the error currency of the staged pipeline.

    A [Diag.t] replaces the bare [string] errors (and the
    pipeline-reachable [failwith]s) of the flow: it carries a
    machine-readable [code], the [stage] that raised it (filled in by
    [Hcv_core.Pipeline.run] when the stage itself did not), the human
    message, and a list of key/value context pairs (loop name, IT,
    attempt count, ...) that make a failure debuggable without re-running
    under a logger.

    Internal invariant violations — caller bugs, not input conditions —
    stay [assert]/[invalid_arg]; a [Diag.t] is for conditions an end-to-
    end run can legitimately hit. *)

type t = {
  stage : string option;  (** pipeline stage provenance, e.g. ["schedule"] *)
  code : string;  (** stable machine-readable identifier, kebab-case *)
  msg : string;
  context : (string * string) list;
}

val v : ?stage:string -> code:string -> ?context:(string * string) list
  -> string -> t

val f :
  ?stage:string -> code:string -> ?context:(string * string) list
  -> ('a, Format.formatter, unit, t) format4 -> 'a
(** [f ~code fmt ...] builds the message with a format string. *)

val with_stage : string -> t -> t
(** Set the stage provenance if the diagnostic does not have one yet
    (the innermost stage wins). *)

val add_context : (string * string) list -> t -> t
(** Append context pairs (outermost last). *)

val code : t -> string
val stage : t -> string option
val message : t -> string

val fields : t -> (string * string) list
(** Machine-readable rendering: [("stage", ...); ("code", ...);
    ("msg", ...)] followed by the context pairs.  Stable field order —
    this is what the trace/JSONL layer serializes. *)

val pp : Format.formatter -> t -> unit
(** ["stage/code: msg (k=v, ...)"]. *)

val to_string : t -> string
