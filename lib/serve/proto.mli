(** The JSONL wire protocol of the scheduling service: one JSON object
    per line each way, read by {!Hcv_explore.Decode} and printed by
    {!Hcv_explore.Jsonx} in the sweep cache's exact float forms.

    {2 Requests}

    The envelope, which every op accepts, is ["id"] (a non-empty string,
    echoed in the response), ["op"] and ["deadline_ms"] (optional,
    >= 0).  The op picks the other fields:

    - ["ping"], ["stats"] (daemon counters; volatile) and ["shutdown"]
      (acknowledge, flush and stop): none;
    - ["explore"]: ["bench"] (a SPECfp name), ["loops"] (1..64, default
      per-spec), ["seed"] (default 42) and the run fields;
    - ["frontier"]: the [explore] fields, ["objectives"] and ["caps"]
      ({!Hcv_core.Frontier.spec_fields}).  The result gains the frontier
      members; an unbudgeted request keys as the CLI's frontier sweep
      cell;
    - ["schedule"]: ["name"] (default ["adhoc"]), exactly one of ["dsl"]
      ({!Hcv_ir.Dsl} text) and ["graph"] ({!section-graph}), and the run
      fields.

    The run fields are ["buses"] (1..8, default 1), ["grid_steps"]
    (1..64, default unrestricted), ["machine"] (a {!Hcv_machine.Family}
    name or a {!Hcv_explore.Machdesc} object, default the paper
    machine), ["budget"] (>= 1, default none) and ["degrade"] (default
    [false]).  Exhausting the budget answers [budget-exhausted], or with
    [degrade:true] the estimate-fallback result.  ["deadline_ms"]
    compiles onto the same cap ({!Registry.effective_budget}) and
    answers [deadline-exceeded]; [0] is the fast-fail probe.

    An undeclared or repeated key, or a mistyped value, is a
    [bad-request] that names the value by its path, as in
    ["machine.clusters[0].speed"].  Defaults apply only to absent keys.

    {2:graph DDG payloads}

    ["graph"] is one loop object or a non-empty list of them:
    [{"name":..,"trip":..,"weight":..,
      "nodes":[{"n":ID,"op":MNEMONIC},...],
      "edges":[{"s":ID,"d":ID,"dist":N,"lat":N,"kind":K},...]}]
    with the DSL's defaults for everything but ["nodes"], ["n"],
    ["op"], ["s"] and ["d"].  The registry refuses it field by field, as
    [bad-graph].

    {2 Responses}

    [{"id":..,"ok":true,"op":..}] (plus ["result"] for ops that return
    one), or [{"id":..,"ok":false,"error":{"stage":..,"code":..,
    "msg":..,"context":[[k,v],...]}}] — a {!Hcv_obs.Diag.t} on the
    wire.  ["id"] is [null] when the request line carried no usable id
    (unparseable JSON, oversized line).  Response bytes for run ops are
    deterministic: they depend only on the request content, never on
    the worker count, the batch composition or the cache state. *)

(** The ["machine"] field; [Desc] holds the description's canonical
    text, so equal machines key equally whatever the client's
    formatting. *)
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
      (** the dispatcher may fill in a server-side default *)
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
