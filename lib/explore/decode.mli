(** Typed decoding of {!Jsonx} values, the one reader behind every JSON
    boundary.  Each field is declared once, with its name, type, range
    and default, and declarations compose like cmdliner terms:
    [obj "icn" (let+ buses = dflt "buses" 1 (int_in 1) and+ ... in ...)].
    An object refuses any key it does not declare and any key bound
    twice; a default applies only to an absent key, never to a mistyped
    value; integers follow {!Jsonx.int}.  Declare decoders at top level:
    {!obj} builds its key table once, then checks an object's keys in
    one pass. *)

type 'a t

type problem =
  | Missing of { obj : string; what : string }  (** [obj] needs [what] *)
  | Mistyped of string  (** the value is not [what] *)
  | Unknown_field
  | Duplicate_field
  | Unknown_tag of string  (** a {!tagged} key naming no case *)
  | Invalid of string  (** a {!check} failed *)

type error = {
  path : string;  (** the refused value, as in ["machine.clusters[0].int"] *)
  field : string;  (** the last key on [path], or [""] *)
  problem : problem;
}

val message : error -> string
(** [<obj> needs <what> "<path>"], [field "<path>" must be <what>],
    [unknown field "<path>"], [duplicate field "<path>"] or
    [unknown <path> "<tag>"]. *)

val run : ?root:string -> 'a t -> Jsonx.t -> ('a, error) result
(** Paths start at [root], the key the value sits under. *)

val of_string : 'a t -> string -> ('a, string) result
(** {!Jsonx.of_string}, then {!run}, failing with a message. *)

(** {2 Values} *)

val string : string t
val int : int t
val number : float t
val bool : bool t
val json : Jsonx.t t

val int_in : ?max:int -> int -> int t
(** [int_in ?max lo]: an integer in [lo..max]. *)

val enum : (string * 'a) list -> 'a t
(** A string naming one of the cases. *)

val list : 'a t -> 'a list t
val non_empty : 'a t -> 'a list t
val pair : 'a t -> 'b t -> ('a * 'b) t
val nullable : 'a t -> 'a option t

val assoc : 'a t -> (string * 'a) list t
(** An object with any keys. *)

val refine : string -> ('a -> 'b option) -> 'a t -> 'b t
(** [refine what f d]: [f] is [None] on a value that is not [what]. *)

val map : ('a -> 'b) -> 'a t -> 'b t

val union : string -> (Jsonx.t -> 'a t option) -> 'a t
(** Picks a prebuilt decoder by the value's shape; [None] if not [what]. *)

val fix : ('a t -> 'a t) -> 'a t

(** {2 Objects} *)

type 'a fields

val req : string -> 'a t -> 'a fields
val opt : string -> 'a t -> 'a option fields
val dflt : string -> 'a -> 'a t -> 'a fields
val return : 'a -> 'a fields

val ( let+ ) : 'a fields -> ('a -> 'b) -> 'b fields
val ( and+ ) : 'a fields -> 'b fields -> ('a * 'b) fields
(** Fields decode in declaration order; the first error wins. *)

val check : ('a -> ('b, string) result) -> 'a fields -> 'b fields
(** A constraint across fields. *)

val obj : string -> 'a fields -> 'a t
(** The name is the object's in {!Missing}.
    @raise Invalid_argument on a key declared twice. *)

val peek : string -> 'a fields -> 'a t
(** {!obj} that skips other keys and takes a key's first binding. *)

val tagged : string -> string -> (string * 'a fields) list -> 'a t
(** [tagged name key cases]: the string [key] picks the case whose
    fields make up the rest of the object, named [key "case"] in its
    errors, as in [op "explore"]. *)
