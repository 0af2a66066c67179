(** The batched dispatcher and the daemon's one answer path: every line
    the daemon answers becomes a response here, wrapping one shared
    {!Hcv_explore.Engine} (worker pool + persistent result cache + retry
    supervision).

    {!handle} answers a batch of parsed requests: control ops inline,
    run ops admitted and keyed once through the {!Registry},
    deduplicated by content key (concurrent identical requests are
    computed once), and dispatched to the engine as a single supervised
    sweep — so a batch inherits the engine's whole contract: parallel
    across the pool, memoised in the shared warm cache, failures
    quarantined per request.  The lines the socket loop answers without
    dispatching them (parse errors, oversized lines, sheds) go through
    {!refuse}.  Both render each answer from the result or
    {!Hcv_obs.Diag.t} already in hand and count it; nothing re-parses a
    rendered response.  One malformed, failing or budget-exhausted
    request turns into one error line; it never affects another request
    or the daemon — an exception escaping admission answers its own
    request with a structured [internal] error (the exception text in
    its context) and the rest of the batch carries on.

    {2 Overload semantics}

    A request whose deadline (explicit ["deadline_ms"], or the
    [?default_deadline_ms] the dispatcher fills in) bounds less work
    than the workload needs is answered [deadline-exceeded] — or, with
    ["degrade":true], with the estimate-fallback result.

    Determinism: the response line of a run request depends only on the
    request's content — not on the batch it arrived in, the worker
    count, the cache state or what the daemon answered before — which
    is what lets a load generator byte-compare concurrent warm runs
    against a sequential cold one.  There is no carve-out: an identical
    repeat of a request the engine quarantined is computed again under
    the engine's retry policy. *)

type t

val create : ?default_deadline_ms:int -> Hcv_explore.Engine.t -> t
(** Wrap an existing engine (pool, cache, retry policy).  The caller
    owns the engine's lifecycle; {!shutdown} delegates to it.
    [?default_deadline_ms] is compiled onto every run request that does
    not carry its own ["deadline_ms"] (default: none). *)

val jobs : t -> int

val handle :
  t -> ?obs:Hcv_obs.Trace.span -> Proto.envelope list -> string list
(** One response line (no trailing newline) per envelope, in order.
    With [?obs], deterministic ["serve.requests"] / ["serve.errors"] /
    ["serve.unique_cells"] counters are recorded under a ["batch"]
    span; overload tallies (e.g. ["serve.deadline_exceeded"]) are
    volatile gauges, so the deterministic trace view stays byte-stable
    under chaos. *)

val handle_line : t -> ?obs:Hcv_obs.Trace.span -> string -> string
(** Parse one raw request line and answer it ({!Proto.parse} errors
    through {!refuse}) — the single-request path used by benches and
    tests. *)

val refuse : t -> ?id:string -> Hcv_obs.Diag.t -> string
(** Render and count the error response for a line answered without
    being dispatched: a {!Proto.parse} error, an oversized line or a
    shed request ([id] when one could be salvaged). *)

val served : t -> int
(** Lines answered so far: every {!handle} envelope, every
    {!handle_line} and every {!refuse}d line, errors included. *)

val errors : t -> int
(** The error answers among {!served}. *)

val shed : t -> int
(** The [overloaded] answers among {!errors} (volatile). *)

val drained : t -> int
(** Lines answered during graceful drain ({!note_drained}; volatile). *)

val note_drained : t -> unit

val set_gauges : t -> (unit -> (string * float) list) -> unit
(** Register the server's live gauges (queue depth, in-flight count…);
    they are embedded in the stats op's ["volatile"] object.  Default:
    none. *)

val stats_json : t -> Hcv_explore.Jsonx.t
(** The ["stats"] op's result object: served/error counters, worker
    count, cache statistics, plus a nested ["volatile"] object
    (uptime, registered gauges, shed/deadline/drain tallies) that two
    runs legitimately disagree on. *)

val shutdown : t -> unit
(** Join the engine's workers and close the cache.  Idempotent. *)
