(** The deterministic parallel sweep engine, with supervised execution.

    A sweep is a list of independent cells mapped through a pure
    function.  The engine (a) distributes the cells over a fixed
    {!Pool} of worker domains, (b) memoises each cell's result in a
    persistent {!Cache} keyed by a content hash of the cell's inputs,
    (c) reports each sweep on the {!Hcv_obs.Trace} span it is given
    (cells, cache hits and computed cells, per-worker busy time; the
    span's own wall clock times the stage), and (d) {e supervises}
    every cell: a raising task is retried under a bounded-backoff
    {!Hcv_resilience.Retry} policy and, if it keeps failing,
    quarantined as a structured [Diag] in its own result slot while
    every healthy cell completes — one poisoned cell can no longer
    abort a whole fan-out.

    Determinism contract: results come back in submission order and
    workers never share mutable state, so the output of {!sweep} is
    identical to the serial [List.map] for any worker count and any
    mix of cache hits — which is what lets a bench assert
    byte-identical tables between [--jobs 1] and [--jobs N], and
    between cold and warm caches.  Faults recovered by retry leave the
    output untouched too (the [hcvliw chaos] command pins this).

    Fault points ({!Hcv_resilience.Inject}, queried with the cell key):
    [Task_raise] fires before the task body, [Slow_cell] stalls a
    worker briefly to shuffle completion order. *)

type t

type ('a, 'b) codec = {
  cell_key : 'a -> string;
      (** content address; must cover every input that affects the
          result *)
  encode : 'b -> string;
  decode : string -> 'b option;
      (** [None] on a corrupt or stale entry — the engine recomputes
          the cell (and reclassifies the probe as a miss) instead of
          failing *)
}

val create :
  ?jobs:int -> ?cache:Cache.t -> ?policy:Hcv_resilience.Retry.policy
  -> unit -> t
(** [jobs] defaults to 1 (serial); [cache] to no memoisation; [policy]
    to {!Hcv_resilience.Retry.default_policy} (3 attempts, doubling
    backoff from 1 ms). *)

val jobs : t -> int
val cache : t -> Cache.t option

val sweep : t -> ?obs:Hcv_obs.Trace.span
  -> codec:('a, 'b) codec -> ('a -> 'b) -> 'a list
  -> ('b, Hcv_obs.Diag.t) result list
(** Memoised, supervised parallel map: cells whose key is in the cache
    are served from it; the rest are computed on the pool under the
    retry policy and stored the moment each cell completes, so a killed
    run checkpoints everything it finished.  A cell that fails every
    attempt returns [Error diag] (codes ["task-failed"] /
    ["injected-fault"], context: cell key, attempts, exception) in its
    own slot — it is not cached, so a later run retries it.  Duplicate
    keys within one call are computed independently (sweep cells are
    normally distinct).  With [?obs] the stage reports a deterministic
    ["cells"] counter plus volatile ["cache.hits"]/["cache.computed"]/
    ["resilience.retries"]/["resilience.quarantined"]/per-worker-busy
    gauges (cache, fault-plan and worker figures are run-dependent, so
    they never enter the deterministic counter view). *)

val shutdown : t -> unit
(** Join the workers and close the cache file.  Idempotent; the cache
    is closed even when joining a worker raises. *)
