(** A fixed pool of OCaml 5 worker domains fed by a {!Workq}.

    The pool exists to parallelise the independent cells of a design-
    space sweep *without changing its result*: {!map} hands each element
    to a worker, stores every result in the slot of its submission
    index, and returns the list in submission order, so the output is
    identical to [List.map] regardless of worker count or completion
    order.

    [jobs = 1] (the default) spawns no domains and runs everything in
    the calling domain — the serial behaviour, bit for bit.  A {!map}
    issued from *inside* a worker (a nested sweep) also runs inline in
    that worker, which makes nesting safe: workers never block waiting
    for tasks that only they could execute. *)

type t

val create : ?jobs:int -> unit -> t
(** [jobs] worker domains (default 1 = serial; values [< 1] are clamped
    to 1).  With [jobs > 1] the pool spawns [jobs] domains that live
    until {!shutdown}. *)

val jobs : t -> int

val map_outcome :
  t -> ('a -> 'b) -> 'a list
  -> ('b, exn * Printexc.raw_backtrace) result list
(** Supervised parallel [List.map]: every task runs to completion and
    each element's outcome is reported in its own slot — [Error] holds
    the raised exception with its backtrace — so one failing element
    cannot abort the fan-out.  Deterministic ordering as {!map}. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Parallel [List.map] with deterministic ordering.  If one or more
    applications raise, every task still runs to completion and the
    exception of the *lowest-indexed* failing element is re-raised (with
    its original backtrace) — matching what the serial run would report
    first.  [{!map_outcome} + re-raise]. *)

val shutdown : t -> unit
(** Close the queue and join the workers.  Idempotent.  The pool must
    not be used afterwards. *)
