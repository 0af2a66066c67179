(** JSON machine descriptions.

    The import/export format through which machines reach the system
    from files ([hcvliw ... --machine FILE]), the serve wire protocol
    (the ["machine"] request field) and sweep cells — instead of only
    from compiled-in presets.  See the implementation header for the
    exact shape; rationals use {!Codec.q_to_string}'s ["num/den"]
    form. *)

open Hcv_machine

val max_grid_steps : int
(** 64: the most frequency-grid steps a description, a request's
    ["grid_steps"] or the CLI's [--steps] may ask for. *)

val of_json : Jsonx.t -> (Machine.t, string) result
val of_string : string -> (Machine.t, string) result

val to_json : Machine.t -> Jsonx.t

val to_string : Machine.t -> string
(** Canonical: every field is emitted explicitly, so structurally equal
    machines serialise byte-identically and the text can serve as a
    cache-key component. *)
