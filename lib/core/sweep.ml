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
   v2: outcomes carry the per-cell deterministic trace. *)
let version_salt = "hcv-sweep-v2"

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
    (* Appended only when present: plain cells keep their pre-frontier
       keys (no salt bump, old caches stay valid) and frontier cells can
       never collide with them. *)
    @
    match c.frontier with
    | None -> []
    | Some s -> [ "frontier"; Frontier.spec_key s ])

type outcome = {
  bench : string;
  ed2_ratio : float;
  time_ratio : float;
  energy_ratio : float;
  fallbacks : int;
  causes : string list;
  hetero : string;
  frontier : string list;
  error : string option;
  trace : Hcv_obs.Trace.node option;
}

let choice_to_string (c : Select.choice) =
  E.Jsonx.to_string
    (E.Jsonx.Obj
       [
         ("config", E.Codec.opconfig_to_json c.Select.config);
         ("ed2", E.Jsonx.Str (E.Codec.float_to_string c.Select.predicted_ed2));
         ( "t",
           E.Jsonx.Str (E.Codec.float_to_string c.Select.predicted_time_ns) );
         ( "e",
           E.Jsonx.Str (E.Codec.float_to_string c.Select.predicted_energy) );
       ])

let choice_of_string ~machine s =
  match E.Jsonx.of_string s with
  | Error _ -> None
  | Ok j ->
    let ( let* ) = Option.bind in
    let fstr field =
      Option.bind (Option.bind (E.Jsonx.member field j) E.Jsonx.str)
        E.Codec.float_of_string
    in
    let* config =
      Option.bind (E.Jsonx.member "config" j)
        (fun cj -> E.Codec.opconfig_of_json ~machine cj)
    in
    let* predicted_ed2 = fstr "ed2" in
    let* predicted_time_ns = fstr "t" in
    let* predicted_energy = fstr "e" in
    Some { Select.config; predicted_ed2; predicted_time_ns; predicted_energy }

let outcome_to_string o =
  let fields =
    [
      ("bench", E.Jsonx.Str o.bench);
      ("ed2", E.Jsonx.Str (E.Codec.float_to_string o.ed2_ratio));
      ("time", E.Jsonx.Str (E.Codec.float_to_string o.time_ratio));
      ("energy", E.Jsonx.Str (E.Codec.float_to_string o.energy_ratio));
      ("fallbacks", E.Jsonx.Num (float_of_int o.fallbacks));
      ("hetero", E.Jsonx.Str o.hetero);
    ]
    (* Written only when non-empty, so entries without fallbacks keep
       their pre-causes byte form. *)
    @ (match o.causes with
      | [] -> []
      | cs ->
        [ ("causes", E.Jsonx.List (List.map (fun c -> E.Jsonx.Str c) cs)) ])
    (* Ditto: only frontier cells (whose keys are new) ever write it. *)
    @ (match o.frontier with
      | [] -> []
      | ms ->
        [ ("frontier", E.Jsonx.List (List.map (fun m -> E.Jsonx.Str m) ms)) ])
    @ (match o.error with
      | None -> []
      | Some msg -> [ ("error", E.Jsonx.Str msg) ])
    @
    match o.trace with
    | None -> []
    (* Deterministic view only: a cached trace must replay identically
       whatever the run that produced it. *)
    | Some node -> [ ("trace", E.Tracex.json_of_node ~wall:false node) ]
  in
  E.Jsonx.to_string (E.Jsonx.Obj fields)

let outcome_of_string s =
  match E.Jsonx.of_string s with
  | Error _ -> None
  | Ok j ->
    let ( let* ) = Option.bind in
    let fstr field =
      Option.bind (Option.bind (E.Jsonx.member field j) E.Jsonx.str)
        E.Codec.float_of_string
    in
    let* bench = Option.bind (E.Jsonx.member "bench" j) E.Jsonx.str in
    let* ed2_ratio = fstr "ed2" in
    let* time_ratio = fstr "time" in
    let* energy_ratio = fstr "energy" in
    let* fallbacks = Option.bind (E.Jsonx.member "fallbacks" j) E.Jsonx.int in
    let* hetero = Option.bind (E.Jsonx.member "hetero" j) E.Jsonx.str in
    (* A pre-causes entry that carries fallbacks is stale: decoding it
       with [causes = []] would make a warm response differ from a cold
       recompute of the same cell, so it must miss and recompute.
       Clean pre-causes entries keep decoding with [causes = []]. *)
    let* causes =
      match E.Jsonx.member "causes" j with
      | Some cj -> Option.map (List.filter_map E.Jsonx.str) (E.Jsonx.list cj)
      | None -> if fallbacks > 0 then None else Some []
    in
    (* Only frontier-keyed cells ever wrote this; a successful frontier
       cell always has at least one member, so [] only decodes for plain
       or failed cells — no staleness ambiguity. *)
    let frontier =
      match E.Jsonx.member "frontier" j with
      | Some fj ->
        Option.value ~default:[]
          (Option.map (List.filter_map E.Jsonx.str) (E.Jsonx.list fj))
      | None -> []
    in
    let error = Option.bind (E.Jsonx.member "error" j) E.Jsonx.str in
    let trace = Option.bind (E.Jsonx.member "trace" j) E.Tracex.node_of_json in
    Some
      {
        bench;
        ed2_ratio;
        time_ratio;
        energy_ratio;
        fallbacks;
        causes;
        hetero;
        frontier;
        error;
        trace;
      }

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
        hetero = choice_to_string r.Pipeline.hetero;
        frontier =
          (match r.Pipeline.frontier with
          | None -> []
          | Some f ->
            List.map
              (fun (e : Select.choice Frontier.entry) ->
                choice_to_string e.Frontier.item)
              (Frontier.members f));
        error = None;
        trace = None;
      }
    | Error diag ->
      {
        bench = c.bench;
        ed2_ratio = Float.nan;
        time_ratio = Float.nan;
        energy_ratio = Float.nan;
        fallbacks = 0;
        causes = [];
        hetero = "";
        frontier = [];
        error = Some (Hcv_obs.Diag.to_string diag);
        trace = None;
      }
    | exception e ->
      {
        bench = c.bench;
        ed2_ratio = Float.nan;
        time_ratio = Float.nan;
        energy_ratio = Float.nan;
        fallbacks = 0;
        causes = [];
        hetero = "";
        frontier = [];
        error = Some (Printexc.to_string e);
        trace = None;
      }
  in
  let trace =
    Option.bind (Hcv_obs.Trace.export sp) (fun node ->
        E.Tracex.node_of_json (E.Tracex.json_of_node ~wall:false node))
  in
  { outcome with trace }

(* A cell the engine's supervisor gave up on (the task raised on every
   retry attempt): quarantined into the report exactly like a pipeline
   failure, so the rest of the sweep stands. *)
let quarantined_outcome (c : cell) diag =
  {
    bench = c.bench;
    ed2_ratio = Float.nan;
    time_ratio = Float.nan;
    energy_ratio = Float.nan;
    fallbacks = 0;
    causes = [];
    hetero = "";
    frontier = [];
    error = Some (Hcv_obs.Diag.to_string diag);
    trace = None;
  }

let run engine ?(label = "sweep") ?(obs = Hcv_obs.Trace.null) ~loops_of cells
    =
  Hcv_obs.Trace.span obs ("sweep:" ^ label) (fun sp ->
      let results =
        E.Engine.sweep engine ~obs:sp ~codec (run_cell ~loops_of) cells
      in
      let outcomes =
        List.map2
          (fun c -> function
            | Ok o -> o
            | Error d -> quarantined_outcome c d)
          cells results
      in
      (* Graft the per-cell traces in submission order — hit or
         computed, every cell contributes the same subtree. *)
      List.iter
        (fun o -> Option.iter (Hcv_obs.Trace.graft sp) o.trace)
        outcomes;
      outcomes)
