(* What the hcvliw subcommands share: one declaration of every flag more
   than one of them takes, as Cmdliner terms they compose; the benchmark
   list; the --machine lookup; and the error, engine and observability
   plumbing.  A flag whose default differs between subcommands takes
   the default as an argument. *)

open Cmdliner
open Hcv_support
open Hcv_machine
open Hcv_core
open Hcv_workload
module E = Hcv_explore

let setup_logs () =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Warning)

let or_die = function
  | Ok v -> v
  | Error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 1

(* Same, for results whose error is a structured diagnostic.  It exits
   the process, so it must never run on a worker domain. *)
let diag_ok = function
  | Ok v -> v
  | Error d -> or_die (Error (Hcv_obs.Diag.to_string d))

(* ----- flags -------------------------------------------------------- *)

let seed =
  Arg.(
    value & opt int 42
    & info [ "seed" ]
        ~doc:"Seed of everything the command draws: the workload, the \
              request stream, the fault plan or the fuzz cases.")

let jobs ?(default = 1) () =
  Arg.(
    value & opt int default
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Worker domains (1 = serial; the output is identical for any \
              value).")

let loops_arg c default =
  Arg.(value & opt c default & info [ "loops" ] ~doc:"Loops per benchmark.")

let loops = loops_arg Arg.(some ~none:"per-spec" int) None

(* --loops with a fixed default: the drills and the load generator keep
   their populations small to stay fast. *)
let fixed_loops n = loops_arg Arg.int n

let buses =
  Arg.(value & opt int 1 & info [ "buses" ] ~doc:"Number of register buses.")

let steps =
  Arg.(
    value & opt (some int) None
    & info [ "steps" ]
        ~doc:"Frequency-grid steps (default: unrestricted frequencies).")

let cache =
  Arg.(
    value & opt (some string) None
    & info [ "cache" ] ~docv:"DIR"
        ~doc:"Persist completed cells to $(docv)/cache.jsonl and reuse them \
              on later runs; a rerun with the same $(docv) resumes an \
              interrupted one.  Every sweep and the daemon share one \
              directory without colliding.")

let trace =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write the run's span tree (for $(b,paper), one tree per \
           experiment) to $(docv) as JSONL: one object per span in \
           pre-order, with an explicit depth.  Wall-clock \
           durations and volatile gauges come last in each object so \
           they can be stripped mechanically; everything before them is \
           byte-identical for any --jobs value and cache state.")

let metrics =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print the span/counter table to stderr when the run completes.")

(* ----- benchmarks --------------------------------------------------- *)

let find_spec name =
  match Specfp.find name with
  | Some spec -> spec
  | None -> or_die (Error (Printf.sprintf "unknown benchmark %S" name))

(* "all" anywhere expands to the whole population; an unknown name is
   an error before anything runs. *)
let benchmarks =
  let expand names =
    if List.mem "all" names then List.map (fun s -> s.Specfp.name) Specfp.all
    else (
      List.iter (fun n -> ignore (find_spec n)) names;
      names)
  in
  Term.(
    const expand
    $ Arg.(
        value & pos_all string [ "all" ]
        & info [] ~docv:"BENCHMARK"
            ~doc:"Benchmarks (default: the whole population)."))

(* A sweep's cells name benchmarks [benchmarks] already checked.  This
   runs on worker domains, so a failure raises for the engine to
   quarantine instead of exiting. *)
let loops_of (c : Sweep.cell) =
  Specfp.loops ?n_loops:c.Sweep.n_loops ~seed:c.Sweep.seed
    (Option.get (Specfp.find c.Sweep.bench))

(* Print a failed cell's "!!" line where the report would have shown
   it; true for a cell that succeeded. *)
let succeeded ?(prefix = "") (o : Sweep.outcome) =
  match o.Sweep.error with
  | None -> true
  | Some msg ->
    Printf.printf "  !! %s%s failed: %s\n%!" prefix o.Sweep.bench msg;
    false

let mean_ed2 ok =
  Listx.mean (List.map (fun (o : Sweep.outcome) -> o.Sweep.ed2_ratio) ok)

(* The per-benchmark ratio table of explore, families and chaos;
   [label] prefixes each row with its machine. *)
let ratio_columns =
  [
    ("benchmark", Tablefmt.Left);
    ("ED2 ratio", Tablefmt.Right);
    ("time ratio", Tablefmt.Right);
    ("energy ratio", Tablefmt.Right);
    ("fallbacks", Tablefmt.Right);
  ]

let ratio_row ?label (o : Sweep.outcome) =
  Option.to_list label
  @ [
      o.Sweep.bench;
      Tablefmt.cell_f o.Sweep.ed2_ratio;
      Tablefmt.cell_f o.Sweep.time_ratio;
      Tablefmt.cell_f o.Sweep.energy_ratio;
      string_of_int o.Sweep.fallbacks;
    ]

(* ----- --machine: family names and description files --------------- *)

let machine =
  Arg.(
    value & opt (some string) None
    & info [ "machine" ] ~docv:"SPEC"
        ~doc:
          "Target machine: a capability-asymmetric family name \
           ($(b,big-little), $(b,fp-heavy), $(b,scalar-satellite)) or a \
           path to a JSON machine-description file.  Default: the \
           paper's 4-cluster machine.  Description files carry their \
           own interconnect, so $(b,--buses) does not apply to them.")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A SPEC is tried as a family name first, as a machine-description
   file second. *)
let lookup_machine spec =
  if List.mem spec Family.names then `Family spec
  else if Sys.file_exists spec then
    match E.Machdesc.of_string (read_file spec) with
    | Ok m -> `Desc m
    | Error msg -> or_die (Error (Printf.sprintf "%s: %s" spec msg))
  else
    or_die
      (Error
         (Printf.sprintf
            "unknown machine %S: not a family (one of %s) and not a file" spec
            (String.concat ", " Family.names)))

(* Absent means the paper machine at the given bus count. *)
let resolve_machine ~buses = function
  | None -> Presets.machine_4c ~buses
  | Some spec -> (
    match lookup_machine spec with
    | `Family f -> Family.machine ~buses f
    | `Desc m -> m)

(* The same lookup for cell-based sweeps: the selection rides in the
   cell (and so in its cache key).  Description files are canonicalised
   exactly as the serve boundary does, so equal machines key equally
   however they arrive. *)
let machine_sel_of_spec = function
  | None -> Sweep.Paper
  | Some spec -> (
    match lookup_machine spec with
    | `Family f -> Sweep.Family f
    | `Desc m -> Sweep.Desc (E.Machdesc.to_string m))

(* ----- engine and observability ------------------------------------- *)

(* Cache recovery diagnostics (corrupt lines quarantined, directory
   unusable, ...) go to stderr; stdout stays the deterministic report. *)
let cache_warn d = Printf.eprintf "warning: %s\n%!" (Hcv_obs.Diag.to_string d)

let print_cache_stats c =
  let s = E.Cache.stats c in
  Printf.eprintf "cache: %d hits, %d misses, %d entries\n%!" s.E.Cache.hits
    s.E.Cache.misses s.E.Cache.entries

(* Engine/cache lifecycle for every engine-backed subcommand: open the
   persistent cache with recovery warnings to stderr, create the engine,
   and guarantee worker join + cache close however [f] exits. *)
let with_engine ?cache_dir ~jobs f =
  let cache = Option.map (E.Cache.open_dir ~warn:cache_warn) cache_dir in
  let engine = E.Engine.create ~jobs ?cache () in
  Fun.protect
    ~finally:(fun () -> E.Engine.shutdown engine)
    (fun () -> f ~cache engine)

(* Run [f name span] for each name in turn, each under its own
   collecting root span named [name] when --trace or --metrics asked for
   one, under the free null span otherwise (the zero-cost-when-off
   contract).  The trees go to the one trace file in order, the metrics
   tables to stderr, so the deterministic stdout stays untouched. *)
let with_obs_each ~trace ~metrics names f =
  if trace = None && not metrics then
    List.map (fun name -> f name Hcv_obs.Trace.null) names
  else begin
    let runs =
      List.map
        (fun name ->
          let sp = Hcv_obs.Trace.root name in
          let r = f name sp in
          (r, Hcv_obs.Trace.export sp))
        names
    in
    let nodes = List.filter_map snd runs in
    Option.iter
      (fun path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            List.iter
              (fun line -> output_string oc (line ^ "\n"))
              (List.concat_map (E.Tracex.jsonl ~wall:true) nodes)))
      trace;
    if metrics then begin
      List.iter (Hcv_obs.Metrics.print Format.err_formatter) nodes;
      Format.pp_print_flush Format.err_formatter ()
    end;
    List.map fst runs
  end

let with_obs ~trace ~metrics name f =
  List.hd (with_obs_each ~trace ~metrics [ name ] (fun _ sp -> f sp))
