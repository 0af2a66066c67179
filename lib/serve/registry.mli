(** The request registry: semantic validation and content addressing.

    {!Proto.parse} checks only the JSON shape of a request; {!admit}
    turns the parsed work description into an executable {!task} —
    resolving the benchmark against the workload suite, parsing a
    loop-DSL payload, lowering a JSON DDG payload — or rejects it with
    a structured diagnostic ([unknown-benchmark], [bad-dsl],
    [bad-graph], [bad-request]).

    Every admitted task has a content {!key} covering each input that
    can affect its result (machine shape, parameters, workload
    identity or payload text, budget), which is what the dispatcher
    batches and memoises on:

    - an [explore] task without a budget keys {e exactly} like the
      corresponding {!Hcv_core.Sweep} cell, so the daemon's persistent
      cache is shared with [hcvliw explore]/[fig7] sweeps — a warm
      exploration cache serves requests without scheduling anything;
    - payload-carrying or budgeted tasks key under a serve-specific
      salt (the budget bounds the work, so it changes the result). *)

open Hcv_core

type task = {
  work : Proto.work;
  cell : Sweep.cell;
      (** machine/params binding; for payload sources the cell's
          benchmark name is just the request's label *)
  loops : Hcv_ir.Loop.t list;  (** resolved payload; [[]] for [Bench] *)
  canonical : string;
      (** canonical DSL rendering of a payload (keys must not depend on
          payload formatting); [""] for [Bench] *)
  key : string;  (** the content {!key}, computed once by {!admit} *)
}

val admit : Proto.work -> (task, Hcv_obs.Diag.t) result
(** Validate and key one run request.  A JSON DDG field of the wrong
    type is a [bad-graph] error naming it.  Keying resolves the cell's
    machine, so a description that does not parse raises here. *)

val effective_budget : Proto.work -> int option
(** The work cap the task actually runs under: the explicit ["budget"]
    intersected with the deadline compiled through
    {!Hcv_core.Sweep.budget_of_deadline}.  Deterministic (fixed
    calibration, no clocks), so deadlines neither perturb response
    bytes nor invalidate cached outcomes — a deadline is just another
    budget.  [None] only when the request carries neither field. *)

val key : task -> string

val codec : (task, Sweep.outcome) Hcv_explore.Engine.codec
(** {!key} + the {!Sweep.outcome} serialisation (cache interop with the
    exploration sweeps). *)

val run : task -> Sweep.outcome
(** One supervised {!Sweep.run_cell} with the task's
    {!effective_budget}. *)

val answer :
  Proto.work -> (Sweep.outcome, Hcv_obs.Diag.t) result
  -> (Hcv_explore.Jsonx.t, Hcv_obs.Diag.t) result
(** The answer to an executed (or quarantined) task, before rendering:
    - engine quarantine or pipeline failure: the error
      ([task-failed] / [injected-fault] / [pipeline-failed]);
    - effective budget exhausted and the request did not opt into
      degraded results: [deadline-exceeded] when the deadline was the
      binding constraint (it compiled to a cap no looser than any
      explicit budget), else [budget-exhausted] — both name the
      fallback count;
    - otherwise: the ok ["result"] object (exact ["%h"] float forms,
      fallback causes included when present). *)

val response_line :
  id:string -> Proto.work -> (Sweep.outcome, Hcv_obs.Diag.t) result -> string
(** {!answer} rendered as the response line, uncounted; the daemon
    renders through {!Dispatch}, which also counts. *)
