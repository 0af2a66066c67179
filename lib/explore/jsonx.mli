(** A minimal self-contained JSON reader/writer for the result cache,
    machine descriptions, the trace export and the serve wire protocol
    (the toolchain has no JSON library and the build must not grow
    dependencies); readers take its values apart with {!Decode}.

    Floats are printed with 17 significant digits, which round-trips
    every finite IEEE-754 double exactly — cache replays must reproduce
    the original bits, not an approximation.  The parser accepts exactly
    the subset the printer emits plus standard JSON whitespace, string
    escapes and [\uXXXX] sequences (decoded to UTF-8). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string

val of_string : string -> (t, string) result
(** Rejects trailing garbage after the top-level value. *)

(** {2 Accessors} — all return [None] on a shape mismatch. *)

val member : string -> t -> t option
(** First binding of the field in an [Obj]. *)

val str : t -> string option
val num : t -> float option
val int : t -> int option
(** A [Num] that is an integer of magnitude below 2{^53}.  Larger
    literals are refused, since a float no longer holds every integer
    there and the literal may have been rounded in parsing. *)

val list : t -> t list option
