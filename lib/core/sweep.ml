open Hcv_machine
open Hcv_energy
module E = Hcv_explore

type machine_sel =
  | Paper
  | Family of string
  | Desc of string

type cell = {
  bench : string;
  buses : int;
  n_loops : int option;
  seed : int;
  grid_steps : int option;
  params : Params.t;
  frontier : Frontier.spec option;
  machine : machine_sel;
}

let cell ?(buses = 1) ?n_loops ?(seed = 42) ?grid_steps
    ?(params = Params.default) ?frontier ?(machine = Paper) bench =
  { bench; buses; n_loops; seed; grid_steps; params; frontier; machine }

let machine_of_cell c =
  let m =
    match c.machine with
    | Paper -> Presets.machine_4c ~buses:c.buses
    | Family f -> (
      match Family.find ~buses:c.buses f with
      | Some m -> m
      | None ->
        invalid_arg (Printf.sprintf "Sweep: unknown machine family %S" f))
    | Desc d -> (
      (* Descriptions are self-contained (ICN included), so the cell's
         bus count does not apply; callers validate at admission and
         re-serialise canonically, making this a backstop. *)
      match E.Machdesc.of_string d with
      | Ok m -> m
      | Error msg -> invalid_arg ("Sweep: bad machine description: " ^ msg))
  in
  match c.grid_steps with
  | None -> m
  | Some _ as steps -> Machine.with_grid m (Presets.grid_of_steps steps)

(* Covers the pipeline, the workload generator and the outcome format:
   bump on any change that invalidates persisted outcomes.
   v2: outcomes carry the per-cell deterministic trace.
   v3: choices nest as JSON objects, and the trace rides as text on a
   line of its own after the outcome object. *)
let version_salt = "hcv-sweep-v3"

let cell_key c =
  E.Codec.digest
    ([
       version_salt;
       (* Covers the machine selection too: family and description
          machines resolve to non-paper cluster mixes, whose
          machine_key appends the full structural signature — paper
          cells keep their historical keys byte-for-byte. *)
       E.Codec.machine_key (machine_of_cell c);
       E.Codec.params_key c.params;
       c.bench;
       string_of_int c.seed;
       (match c.n_loops with None -> "-" | Some n -> string_of_int n);
     ]
    (* Appended only when present, so frontier cells can never collide
       with plain ones. *)
    @
    match c.frontier with
    | None -> []
    | Some s -> [ "frontier"; Frontier.spec_key s ])

type trace = { text : string; start : int }

let trace_text t =
  if t.start = 0 then t.text
  else String.sub t.text t.start (String.length t.text - t.start)

type outcome = {
  bench : string;
  ed2_ratio : float;
  time_ratio : float;
  energy_ratio : float;
  fallbacks : int;
  causes : string list;
  hetero : E.Jsonx.t;
  frontier : E.Jsonx.t list;
  error : string option;
  trace : trace option;
}

let choice_to_json (c : Select.choice) =
  E.Jsonx.Obj
    [
      ("config", E.Codec.opconfig_to_json c.Select.config);
      ("ed2", E.Jsonx.Str (E.Codec.float_to_string c.Select.predicted_ed2));
      ("t", E.Jsonx.Str (E.Codec.float_to_string c.Select.predicted_time_ns));
      ("e", E.Jsonx.Str (E.Codec.float_to_string c.Select.predicted_energy));
    ]

let choice =
  E.Decode.(
    obj "choice"
      (let+ config = req "config" E.Codec.opconfig
       and+ predicted_ed2 = req "ed2" E.Codec.hex_float
       and+ predicted_time_ns = req "t" E.Codec.hex_float
       and+ predicted_energy = req "e" E.Codec.hex_float in
       fun machine ->
         Option.map
           (fun config ->
             {
               Select.config;
               predicted_ed2;
               predicted_time_ns;
               predicted_energy;
             })
           (config machine)))

let choice_of_json ~machine j =
  match E.Decode.run choice j with Ok bind -> bind machine | Error _ -> None

(* A cached value is the outcome object, then — when the cell carries a
   trace — a newline and the trace text.  The printer escapes every
   newline inside a value, so the first raw one ends the object. *)
let outcome_to_string o =
  let fields =
    [
      ("bench", E.Jsonx.Str o.bench);
      ("ed2", E.Jsonx.Str (E.Codec.float_to_string o.ed2_ratio));
      ("time", E.Jsonx.Str (E.Codec.float_to_string o.time_ratio));
      ("energy", E.Jsonx.Str (E.Codec.float_to_string o.energy_ratio));
      ("fallbacks", E.Jsonx.Num (float_of_int o.fallbacks));
      ("hetero", o.hetero);
    ]
    (* The lists are written only when non-empty; absent decodes as []. *)
    @ (match o.causes with
      | [] -> []
      | cs ->
        [ ("causes", E.Jsonx.List (List.map (fun c -> E.Jsonx.Str c) cs)) ])
    @ (match o.frontier with [] -> [] | ms -> [ ("frontier", E.Jsonx.List ms) ])
    @
    match o.error with None -> [] | Some msg -> [ ("error", E.Jsonx.Str msg) ]
  in
  let head = E.Jsonx.to_string (E.Jsonx.Obj fields) in
  match o.trace with None -> head | Some t -> head ^ "\n" ^ trace_text t

(* A choice is an object ([null] for a failed cell): a v2 value, whose
   choices are escaped strings, never decodes. *)
let outcome =
  let choice_json =
    E.Decode.refine "a choice object"
      (function E.Jsonx.Obj _ as c -> Some c | _ -> None)
      E.Decode.json
  in
  E.Decode.(
    obj "outcome"
      (let+ bench = req "bench" string
       and+ ed2_ratio = req "ed2" E.Codec.hex_float
       and+ time_ratio = req "time" E.Codec.hex_float
       and+ energy_ratio = req "energy" E.Codec.hex_float
       and+ fallbacks = req "fallbacks" int
       and+ hetero = req "hetero" (nullable choice_json)
       and+ causes = dflt "causes" [] (list string)
       and+ frontier = dflt "frontier" [] (list choice_json)
       and+ error = opt "error" string in
       fun trace ->
         {
           bench;
           ed2_ratio;
           time_ratio;
           energy_ratio;
           fallbacks;
           causes;
           hetero = Option.value hetero ~default:E.Jsonx.Null;
           frontier;
           error;
           trace;
         }))

let outcome_of_string s =
  (* The trace stays in [s]: copying it out would cost a daemon hit a
     ~2 KB allocation outside the minor heap for text it never reads. *)
  let head, trace =
    match String.index_opt s '\n' with
    | None -> (s, None)
    | Some i -> (String.sub s 0 i, Some { text = s; start = i + 1 })
  in
  match E.Decode.of_string outcome head with
  | Ok with_trace -> Some (with_trace trace)
  | Error _ -> None

let codec =
  {
    E.Engine.cell_key;
    encode = outcome_to_string;
    decode = outcome_of_string;
  }

(* Deadline calibration: how much budgeted scheduling work one
   millisecond of wall-clock deadline buys.  A fixed constant rather
   than a measured rate keeps deadline-derived budgets — and therefore
   responses and cache keys — deterministic across hosts and runs.
   The floor of 1 point makes a zero deadline the fast-fail probe: the
   pipeline still completes through the estimate-fallback path instead
   of erroring out. *)
let points_per_ms = 64
let budget_of_deadline ms = max 1 (ms * points_per_ms)

(* A failed cell keeps its row: NaN ratios and the rendered failure. *)
let failed_outcome bench msg =
  {
    bench;
    ed2_ratio = Float.nan;
    time_ratio = Float.nan;
    energy_ratio = Float.nan;
    fallbacks = 0;
    causes = [];
    hetero = E.Jsonx.Null;
    frontier = [];
    error = Some msg;
    trace = None;
  }

let run_cell ?budget ~loops_of c =
  let machine = machine_of_cell c in
  let loops = loops_of c in
  (* Always collect the per-cell trace: it rides in the outcome through
     the cache, so a warm sweep replays the very spans a cold one
     collected (what makes [--trace] warm/cold-identical).  Only the
     deterministic view is kept — wall times and volatile gauges are
     stripped before the outcome is encoded or grafted. *)
  let sp = Hcv_obs.Trace.root ("cell:" ^ c.bench) in
  let outcome =
    match
      Pipeline.run ?budget ?frontier:c.frontier ~params:c.params ~machine
        ~name:c.bench ~loops ~obs:sp ()
    with
    | Ok r ->
      {
        bench = c.bench;
        ed2_ratio = r.Pipeline.ed2_ratio;
        time_ratio = r.Pipeline.time_ratio;
        energy_ratio = r.Pipeline.energy_ratio;
        fallbacks = r.Pipeline.fallbacks;
        causes =
          List.map
            (fun (_, d) -> Hcv_obs.Diag.code d)
            r.Pipeline.fallback_causes;
        hetero = choice_to_json r.Pipeline.hetero;
        frontier =
          (match r.Pipeline.frontier with
          | None -> []
          | Some f ->
            List.map
              (fun (e : Select.choice Frontier.entry) ->
                choice_to_json e.Frontier.item)
              (Frontier.members f));
        error = None;
        trace = None;
      }
    | Error diag -> failed_outcome c.bench (Hcv_obs.Diag.to_string diag)
    | exception e -> failed_outcome c.bench (Printexc.to_string e)
  in
  let trace =
    Option.map
      (fun node ->
        {
          text = E.Jsonx.to_string (E.Tracex.json_of_node ~wall:false node);
          start = 0;
        })
      (Hcv_obs.Trace.export sp)
  in
  { outcome with trace }

let run engine ?(label = "sweep") ?(obs = Hcv_obs.Trace.null) ~loops_of cells
    =
  Hcv_obs.Trace.span obs ("sweep:" ^ label) (fun sp ->
      let results =
        E.Engine.sweep engine ~obs:sp ~codec (run_cell ~loops_of) cells
      in
      (* A cell the engine's supervisor gave up on (the task raised on
         every retry attempt) is reported exactly like a pipeline
         failure, so the rest of the sweep stands. *)
      let outcomes =
        List.map2
          (fun (c : cell) -> function
            | Ok o -> o
            | Error d -> failed_outcome c.bench (Hcv_obs.Diag.to_string d))
          cells results
      in
      (* Graft the per-cell traces in submission order — hit or
         computed, every cell contributes the same subtree.  A trace is
         text until here, and is parsed only when someone collects it. *)
      if Hcv_obs.Trace.enabled sp then
        List.iter
          (fun o ->
            Option.iter
              (fun t ->
                match E.Decode.of_string E.Tracex.node (trace_text t) with
                | Ok node -> Hcv_obs.Trace.graft sp node
                | Error _ -> ())
              o.trace)
          outcomes;
      outcomes)
