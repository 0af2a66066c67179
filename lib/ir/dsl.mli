(** Textual format for loops ([.loop] files).

    Line-oriented:

    {v
    # comment
    loop dotprod trip 256 weight 0.4
      node a ld.f
      node c mul.f
      edge a c                # latency defaults to src's latency
      edge c c dist 1 lat 6   # loop-carried, explicit latency
      edge a c kind mem
    end
    v}

    A file may contain several loops.  Node names are per-loop unique
    identifiers; [edge] refers to them.  [trip] and [weight] are
    optional (defaults as in {!Loop.make}). *)

type error = { line : int; msg : string }

val max_edge_value : int
(** [255]: the largest [lat] or [dist] {!parse} accepts; a larger (or
    negative) value is refused at its edge's line.  Opcode latencies
    are at most 18 and the generators' distances at most 2.

    Why 255.  Downstream of the parser an edge's latency and distance
    enter exact integer arithmetic that nothing checks for overflow:
    the schedulers' integer time base ([Hcv_sched.Timing.Memo]).  Every
    tick count of a clocking is at most [2^40] and no cycle time exceeds
    the IT, so one edge adds at most 255 ITs to a definition time
    ([eff_ct * lat]) or to a consumer's need ([IT * dist]), and each
    product stays below [2^48].  Along a dependence path an instruction
    starts at most [lat + b + 4] ITs after its producer (latency, a bus
    of [b] cycles plus one of synchronisation, and the II-wide scan), so
    a schedule of [n] instructions is [L <= n * (255 + b + 4)] ITs long.
    timing.mli's bound, exact while [n * L < 2^22], then holds for every
    loop of up to 126 instructions at [b <= 4] even at [2^40] ticks per
    IT; the clockings the schedulers meet use a few ticks per ns.
    ({!Cycle_ratio.exact_over} states its own, far larger, bound.)

    No bound on single values makes this argument hold for loops of any
    size: it also needs the loop to be small, as it did before this
    bound.  What the bound removes is the wrap a single value
    caused, such as [lat 4611686018427387000] scheduling a consumer
    four cycles after its producer. *)

val parse : string -> (Loop.t list, error) result
(** Parse from a string. *)

val parse_file : string -> (Loop.t list, error) result
(** Parse from a file; I/O failures are reported as [{line = 0; _}]. *)

val print : Loop.t -> string
(** Render a loop in the DSL syntax; [parse (print l)] round-trips. *)

val print_all : Loop.t list -> string

val pp_error : Format.formatter -> error -> unit
