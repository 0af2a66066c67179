(** Exact rational arithmetic over native 63-bit integers.

    Times (initiation times, cycle times) and frequencies in this project
    are exact rationals so that questions such as "is [it * f] an
    integer?" or "does this frequency belong to the machine's discrete
    grid?" are decidable without floating-point fuzz.  Values are kept in
    normal form: positive denominator, reduced by gcd.  Arithmetic
    normalises through gcds *before* cross-multiplying (Knuth TAOCP
    4.5.1) and comparison uses a Euclid-style remainder descent, so any
    operation whose reduced operands and result fit in a native int is
    exact — even when the naive cross products would overflow. *)

type t = private { num : int; den : int }

val make : int -> int -> t
(** [make num den] is the normalised rational [num/den].
    @raise Invalid_argument if [den = 0]. *)

val of_int : int -> t
val zero : t
val one : t

val num : t -> int
val den : t -> int

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** @raise Division_by_zero if the divisor is zero. *)

val neg : t -> t
val inv : t -> t
(** @raise Division_by_zero on [inv zero]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool

val min : t -> t -> t
val max : t -> t -> t

val is_integer : t -> bool

val floor : t -> int
(** Largest integer [<= t] (mathematical floor, also for negatives). *)

val ceil : t -> int
(** Smallest integer [>= t]. *)

val sign : t -> int

val to_float : t -> float
val of_float_approx : ?max_den:int -> float -> t
(** Best rational approximation with denominator [<= max_den]
    (default 1_000_000), via continued fractions.  Used only for
    display-level conversions, never in scheduling decisions. *)

val mul_int : t -> int -> t
val div_int : t -> int -> t

val floor_div : t -> t -> int
(** [floor_div a b = floor (div a b)] without building the intermediate
    rational.  @raise Division_by_zero if [b] is zero. *)

val ceil_div : t -> t -> int
(** [ceil_div a b = ceil (div a b)] without building the intermediate
    rational.  @raise Division_by_zero if [b] is zero. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val floordiv : int -> int -> int
(** [floor (p / q)] for [q > 0], also for negative [p]. *)

val ceildiv : int -> int -> int
(** [ceil (p / q)] for [q > 0]. *)

val gcd : int -> int -> int
(** Greatest common divisor on non-negative representatives. *)

val lcm : int -> int -> int
