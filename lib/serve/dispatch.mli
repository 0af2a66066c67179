(** The batched dispatcher: every request path of the daemon funnels
    through one of these, wrapping one shared {!Hcv_explore.Engine}
    (worker pool + persistent result cache + retry supervision).

    {!handle} answers a batch of parsed requests: control ops inline,
    run ops admitted through the {!Registry}, deduplicated by content
    key (concurrent identical requests are computed once), and
    dispatched to the engine as a single supervised sweep — so a batch
    inherits the engine's whole contract: parallel across the pool,
    memoised in the shared warm cache, failures quarantined per
    request.  One malformed, failing or budget-exhausted request turns
    into one error line; it never affects another request or the
    daemon.

    {2 Overload semantics}

    A request whose deadline (explicit ["deadline_ms"], or the
    [?default_deadline_ms] the dispatcher fills in) bounds less work
    than the workload needs is answered [deadline-exceeded] — or, with
    ["degrade":true], with the estimate-fallback result.  A content key
    the engine's supervisor quarantined trips a {e circuit breaker}:
    until restart, identical requests fast-fail with [circuit-open]
    (context: the key and the original code) instead of re-executing a
    known-bad cell.  Only genuine quarantines ([task-failed] /
    [injected-fault]) open circuits — budget/deadline exhaustion and
    pipeline failures never do, so a fault-free daemon never trips one.

    Determinism: the response line of a run request depends only on the
    request's content — not on the batch it arrived in, the worker
    count, or the cache state — which is what lets a load generator
    byte-compare concurrent warm runs against a sequential cold one.
    (The one carve-out is [circuit-open], which by design remembers a
    quarantine; fault-free runs never produce one.) *)

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
    included) — the single-request path used by benches and tests. *)

val served : t -> int
(** Requests answered so far (errors included; shed requests are
    answered by the server before reaching the dispatcher and are NOT
    counted here — see {!shed}). *)

val errors : t -> int

val shed : t -> int
(** Requests the server shed with [overloaded] ({!note_shed}). *)

val drained : t -> int
(** Requests answered during graceful drain ({!note_drained}). *)

val breaker_open : t -> int
(** Content keys currently fast-failing with [circuit-open]. *)

val note_shed : t -> unit
(** The server records each load-shed request here (the shed response
    itself is rendered at the socket layer, bypassing {!handle}). *)

val note_drained : t -> unit

val set_gauges : t -> (unit -> (string * float) list) -> unit
(** Register the server's live gauges (queue depth, in-flight count…);
    they are embedded in the stats op's ["volatile"] object.  Default:
    none. *)

val stats_json : t -> Hcv_explore.Jsonx.t
(** The ["stats"] op's result object: served/error counters, worker
    count, cache statistics, plus a nested ["volatile"] object
    (uptime, registered gauges, shed/deadline/drain tallies, open
    circuits) that two runs legitimately disagree on. *)

val shutdown : t -> unit
(** Join the engine's workers and close the cache.  Idempotent. *)
