(** Design-space sweep cells: the bridge between the evaluation (the
    paper's Figures 6–9 and the ablation benches) and the
    {!Hcv_explore.Engine}.

    A {!cell} names one independent unit of the evaluation sweep — a
    benchmark run on one machine variant under one energy-parameter
    set — by the *inputs* that generate it (benchmark name, workload
    seed, loop count, bus count, frequency grid, parameters).  The
    content key hashes exactly those inputs, so a persistent cache
    entry is valid for as long as the generators are; bump
    {!version_salt} when an incompatible change to the pipeline or the
    workload generator invalidates old results.

    An {!outcome} is the cached distillation of a {!Pipeline.run}: the
    normalised ratios every figure consumes, plus the selected
    heterogeneous configuration as a {!choice_to_json} object (floats
    in exact ["%h"] form so replays are bit-identical).

    {2 Cached value layout (salt v3)}

    {!outcome_to_string} writes the outcome as one JSON object —
    ratios, fallback count, causes, the [hetero] choice and any frontier
    members nested as objects, the error — and, when the cell carries a
    trace, a newline followed by the trace text.  The JSON printer
    escapes every newline inside a value, so the first raw newline ends
    the object.  {!outcome_of_string} parses only the object and leaves
    the trace as text in place: a daemon hit, which never answers with a
    trace, neither parses nor copies instrumentation, and {!run} parses
    a trace only when it grafts it into a collecting span. *)

open Hcv_ir
open Hcv_machine
open Hcv_energy

(** Which machine the cell sweeps.  [Paper] (the default) is
    {!Presets.machine_4c}; [Family name] resolves a named
    capability-asymmetric design via {!Hcv_machine.Family.find} at the
    cell's bus count; [Desc json] carries a self-contained
    {!Hcv_explore.Machdesc} description (canonical text — callers
    validate and re-serialise at admission), whose own ICN supersedes
    the cell's bus count. *)
type machine_sel =
  | Paper
  | Family of string
  | Desc of string

type cell = {
  bench : string;  (** synthetic SPECfp benchmark name *)
  buses : int;
  n_loops : int option;  (** [None]: the benchmark's default *)
  seed : int;
  grid_steps : int option;
      (** divider-grid steps; [None]: unrestricted frequencies *)
  params : Params.t;
  frontier : Frontier.spec option;
      (** when present the cell's pipeline also runs the optional
          frontier stage and the outcome carries the members *)
  machine : machine_sel;
}

val cell :
  ?buses:int -> ?n_loops:int -> ?seed:int -> ?grid_steps:int
  -> ?params:Params.t -> ?frontier:Frontier.spec -> ?machine:machine_sel
  -> string -> cell
(** Defaults: 1 bus, per-spec loops, seed 42, unrestricted grid,
    {!Params.default}, no frontier stage, the paper machine. *)

val machine_of_cell : cell -> Machine.t
(** Resolves the cell's machine selection (and grid-steps override).
    @raise Invalid_argument on an unknown family name or a malformed
    machine description — callers validate those at admission. *)

val version_salt : string

val cell_key : cell -> string
(** Digest of the generating inputs and {!version_salt}.  The frontier
    spec is folded in only when present, so frontier cells never
    collide with plain ones.  The machine selection is covered through
    {!Hcv_explore.Codec.machine_key}, which appends the full structural
    signature for any non-paper cluster mix — paper cells keep their
    historical keys. *)

type trace = { text : string; start : int }
(** A cell's deterministic trace (wall times and volatile gauges
    stripped) as {!Hcv_explore.Tracex.json_of_node} text: the bytes of
    [text] from [start] on.  A decoded outcome's trace points into the
    cached value instead of copying it out, so a daemon hit allocates
    nothing for it; only {!run} reads it, to graft it. *)

val trace_text : trace -> string

type outcome = {
  bench : string;
  ed2_ratio : float;
  time_ratio : float;
  energy_ratio : float;
  fallbacks : int;
  causes : string list;
      (** diagnostic codes of the estimate fallbacks, in loop order
          (e.g. ["budget-exhausted"]); [[]] when every loop scheduled.
          Written to the cache only when non-empty *)
  hetero : Hcv_explore.Jsonx.t;
      (** the winning {!Select.choice} as a {!choice_to_json} object;
          [Null] on failure *)
  frontier : Hcv_explore.Jsonx.t list;
      (** the frontier members in deterministic member order (each a
          {!choice_to_json} object); [[]] unless the cell carried a
          frontier spec and the pipeline succeeded.  Like [causes],
          written to the cache only when non-empty *)
  error : string option;
      (** [Some msg] when the pipeline failed; the ratios are then
          [nan] (rendered {!Hcv_obs.Diag.to_string}, so the stage and
          code survive the cache) *)
  trace : trace option;
      (** cached with the outcome so warm sweeps replay the spans cold
          ones collected *)
}

val outcome_to_string : outcome -> string

val outcome_of_string : string -> outcome option
(** The one decoder, for sweeps and the daemon alike.  [None] for
    anything but the layout above — a value written under an older
    salt (choices as escaped strings, the trace inline) included — so
    the engine recomputes the cell. *)

val choice_to_json : Select.choice -> Hcv_explore.Jsonx.t

val choice_of_json :
  machine:Machine.t -> Hcv_explore.Jsonx.t -> Select.choice option
(** Round-trips {!choice_to_json}; needs the machine to rebind the
    configuration. *)

val codec : (cell, outcome) Hcv_explore.Engine.codec

val points_per_ms : int
(** Deadline calibration: the scheduling work budget one millisecond of
    wall-clock deadline buys.  A fixed constant (not a measured rate)
    so deadline-derived budgets are deterministic across hosts. *)

val budget_of_deadline : int -> int
(** [budget_of_deadline ms = max 1 (ms * points_per_ms)] — the floor of
    1 makes a zero deadline a fast-fail probe that still completes
    through the estimate-fallback path. *)

val run_cell : ?budget:int -> loops_of:(cell -> Loop.t list) -> cell -> outcome
(** One full {!Pipeline.run}; failures are folded into the outcome
    rather than raised, so a failing benchmark does not poison a
    parallel sweep.  No inner pool: cells are the unit of
    parallelism.  [?budget] is threaded to {!Pipeline.run} (the serving
    plane uses it; budgeted cells must be keyed by the caller so they
    never collide with unbudgeted ones — {!cell_key} does not cover
    it). *)

val run :
  Hcv_explore.Engine.t -> ?label:string -> ?obs:Hcv_obs.Trace.span
  -> loops_of:(cell -> Loop.t list) -> cell list -> outcome list
(** [Engine.sweep] over the cells with {!codec} — parallel, memoised,
    deterministic, supervised.  A cell the engine quarantines (its task
    raised on every retry attempt) comes back as an outcome whose
    [error] renders the quarantine diagnostic, so the rest of the sweep
    report stands; healthy cells are unaffected.  With [?obs] the whole
    sweep runs under a ["sweep:<label>"] span; each cell's trace (hit
    or computed) is parsed and grafted beneath it in submission order,
    so the deterministic span tree is identical for any [--jobs] value
    and cache state.  Without a collecting span no trace is parsed. *)
