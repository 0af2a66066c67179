(** The JSONL wire protocol of the scheduling service.

    One JSON object per line in both directions, parsed and printed
    with {!Hcv_explore.Jsonx} — no new dependencies, and the exact
    float forms the sweep cache already uses.

    {2 Requests}

    Every request carries a client-chosen ["id"] (any non-empty string,
    echoed verbatim in the response) and an ["op"]:

    - [{"id":..,"op":"ping"}] — liveness probe;
    - [{"id":..,"op":"stats"}] — daemon counters and cache statistics
      (volatile: two runs legitimately differ);
    - [{"id":..,"op":"shutdown"}] — acknowledge, flush, and stop;
    - [{"id":..,"op":"explore","bench":NAME,...}] — run the full
      profile/select/schedule pipeline for a synthetic SPECfp
      benchmark;
    - [{"id":..,"op":"schedule","dsl":TEXT,...}] or
      [{"id":..,"op":"schedule","graph":G,...}] — the same pipeline
      over a client-supplied workload: either loop-DSL text
      ({!Hcv_ir.Dsl}) or a JSON DDG payload (see {!section-graph});
    - [{"id":..,"op":"frontier","bench":NAME,...}] — [explore] plus the
      optional frontier stage: takes every [explore] option and,
      additionally, ["objectives"] (list of
      [time]/[energy]/[ed2]/[edp]/[power]; default all) and ["caps"]
      ([[NAME, BOUND],...]; default none) in
      {!Hcv_core.Frontier.spec_of_json} form; the result gains the
      frontier members.  An unbudgeted [frontier] request keys exactly
      as the CLI's frontier sweep cell, so the daemon shares its warm
      cache.

    [explore] options: ["seed"] (default 42), ["loops"] (loop count
    1..64, default per-spec).  Both run ops take the machine overrides
    ["buses"] (1..8, default 1), ["grid_steps"] (frequency-grid steps
    1..64, default unrestricted) and ["machine"] (a machine-family name such
    as ["big-little"], or an inline machine-description object in
    {!Hcv_explore.Machdesc} form; default the paper machine), a work
    cap ["budget"] (default unlimited), a latency bound ["deadline_ms"]
    (non-negative; default the server's, if any) and ["degrade"]
    (boolean, default [false]).  With a budget and
    [degrade:false], a request whose scheduling work exhausts the cap
    is answered with a structured [budget-exhausted] error; with
    [degrade:true] the response is the degraded (estimate-fallback)
    result, causes included.  ["deadline_ms"] compiles onto the same
    budget machinery (see {!Registry.effective_budget}): a request
    whose deadline-derived work cap is exhausted answers
    [deadline-exceeded] — or, with [degrade:true], the degraded
    result — and ["deadline_ms":0] is the fast-fail probe that answers
    immediately with whatever the estimate path can produce.

    {2:graph DDG payloads}

    ["graph"] is one loop object or a list of them:
    [{"name":..,"trip":..,"weight":..,
      "nodes":[{"n":ID,"op":MNEMONIC},...],
      "edges":[{"s":ID,"d":ID,"dist":N,"lat":N,"kind":K},...]}]
    with ["dist"]/["lat"]/["kind"] optional, exactly the DSL's
    defaults.

    {2 Responses}

    [{"id":..,"ok":true,"op":..}] (plus ["result"] for ops that return
    one), or [{"id":..,"ok":false,"error":{"stage":..,"code":..,
    "msg":..,"context":[[k,v],...]}}] — a {!Hcv_obs.Diag.t} on the
    wire.  ["id"] is [null] when the request line carried no usable id
    (unparseable JSON, oversized line).  Response bytes for run ops are
    deterministic: they depend only on the request content, never on
    the worker count, the batch composition or the cache state. *)

(** The optional ["machine"] request field: absent ([Default] — the
    paper machine), a {!Hcv_machine.Family} name (validated against the
    known families), or an inline {!Hcv_explore.Machdesc} JSON object
    ([Desc] holds its canonical re-serialisation, so equal machines key
    equally whatever the client's formatting). *)
type machine_choice =
  | Default
  | Family of string
  | Desc of string

type machine_spec = {
  buses : int;
  grid_steps : int option;
  machine : machine_choice;
}

type source =
  | Bench of { bench : string; seed : int; n_loops : int option }
  | Dsl of string  (** raw loop-DSL text; validated by the registry *)
  | Graph of Hcv_explore.Jsonx.t
      (** DDG JSON payload; validated by the registry *)

type work = {
  name : string;  (** label echoed in the result (benchmark or payload name) *)
  source : source;
  spec : machine_spec;
  budget : int option;
  deadline_ms : int option;
      (** the ["deadline_ms"] wire field (>= 0): compiled by the
          registry onto the budget machinery
          ({!Registry.effective_budget}); [0] is the fast-fail probe.
          The dispatcher may fill in a server-side default. *)
  degrade : bool;
  frontier : Hcv_core.Frontier.spec option;
      (** present on ["frontier"] requests: the pipeline also runs the
          optional frontier stage and the result carries the members *)
}

type request = Ping | Stats | Shutdown | Run of work

type envelope = { id : string; req : request }

val op_name : request -> string
(** ["ping"], ["stats"], ["shutdown"], ["explore"], ["schedule"] or
    ["frontier"]. *)

val parse : string -> (envelope, string option * Hcv_obs.Diag.t) result
(** Parse one request line.  On error the [string option] is the
    request id when one could still be extracted (so the error response
    can echo it); diagnostic codes: [bad-json], [bad-request],
    [unknown-op], stage ["serve"]. *)

val ok_line : id:string -> op:string -> ?result:Hcv_explore.Jsonx.t
  -> unit -> string
(** Render a success response line (no trailing newline). *)

val error_line : id:string option -> Hcv_obs.Diag.t -> string

val oversized_diag : int -> Hcv_obs.Diag.t
(** The [oversized-line] diagnostic for a {!Frame.Oversized} item. *)

val overloaded_diag : queue_depth:int -> Hcv_obs.Diag.t
(** The [overloaded] diagnostic a shed request is answered with,
    carrying the pending-queue depth that triggered the shed. *)

(** {2 Client side} *)

type response = {
  rid : string option;  (** [None] when the server answered ["id":null] *)
  ok : bool;
  op : string option;
  result : Hcv_explore.Jsonx.t option;
  error : Hcv_obs.Diag.t option;
}

val parse_response : string -> (response, string) result
