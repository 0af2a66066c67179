(** Bounded retry with exponential backoff — the supervision policy the
    {!Hcv_explore.Engine} applies to every sweep cell.

    A task that raises is retried up to [max_attempts] times with a
    doubling backoff between attempts; a task that keeps failing is
    folded into a structured {!Hcv_obs.Diag.t} (code ["task-failed"])
    so the caller can quarantine it instead of aborting the run.
    Persistent injected faults ({!Inject.Injected} with
    [transient = false]) model deterministic bugs: they skip the
    pointless retries and fail immediately with code
    ["injected-fault"]. *)

type policy = {
  max_attempts : int;  (** total attempts, including the first *)
  backoff_s : float;
      (** sleep before retry [n] is at most [backoff_s * 2^(n-1)]
          seconds; [0.0] disables sleeping (tests) *)
  jitter : float;
      (** fraction of each backoff randomly shaved off, in [0,1]: the
          sleep before retry [n] is drawn uniformly from
          [\[backoff * (1 - jitter), backoff\]].  The draw is seeded
          from the task label, so the same label always sleeps the same
          schedule (deterministic), while distinct cells de-synchronise
          instead of retrying in a burst.  [0.0] is the exact
          exponential. *)
}

val default_policy : policy
(** 3 attempts, 1 ms base backoff, 0.5 jitter. *)

val schedule : ?policy:policy -> label:string -> unit -> float list
(** The exact sleeps (seconds) [run] would take between attempts for
    this label, in order — [max_attempts - 1] entries.  Pure: equal
    (policy, label) pairs give equal schedules. *)

val run :
  ?policy:policy -> ?on_retry:(attempt:int -> exn -> unit) -> label:string
  -> (unit -> 'a) -> ('a, Hcv_obs.Diag.t) result
(** [run ~label f] applies [f] under the policy.  [label] lands in the
    diagnostic's context (the engine passes the cell key).  [on_retry]
    is called before each re-attempt with the attempt number that just
    failed and its exception. *)
