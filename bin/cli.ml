(* The hcvliw command-line interface. *)

open Cmdliner
open Hcv_support
open Hcv_ir
open Hcv_machine
open Hcv_energy
open Hcv_core
open Hcv_workload

let setup_logs () =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Warning)

let machine_of ~buses = Presets.machine_4c ~buses

let load_loops path =
  match Dsl.parse_file path with
  | Ok loops -> Ok loops
  | Error e -> Error (Format.asprintf "%s: %a" path Dsl.pp_error e)

let or_die = function
  | Ok v -> v
  | Error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 1

(* Same, for results whose error is a structured diagnostic. *)
let diag_ok = function
  | Ok v -> v
  | Error d ->
    Printf.eprintf "error: %s\n" (Hcv_obs.Diag.to_string d);
    exit 1

(* ----- --machine: family names and description files --------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A SPEC is tried as a family name first, as a machine-description
   file second; absent means the paper machine at the given bus
   count.  Description files carry their own ICN, so --buses does not
   apply to them. *)
let resolve_machine ~buses = function
  | None -> machine_of ~buses
  | Some spec -> (
    match Family.find ~buses spec with
    | Some m -> m
    | None ->
      if Sys.file_exists spec then
        match Hcv_explore.Machdesc.of_string (read_file spec) with
        | Ok m -> m
        | Error msg -> or_die (Error (Printf.sprintf "%s: %s" spec msg))
      else
        or_die
          (Error
             (Printf.sprintf
                "unknown machine %S: not a family (one of %s) and not a file"
                spec
                (String.concat ", " Family.names))))

let machine_arg =
  Cmdliner.Arg.(
    value & opt (some string) None
    & info [ "machine" ] ~docv:"SPEC"
        ~doc:
          "Target machine: a capability-asymmetric family name \
           ($(b,big-little), $(b,fp-heavy), $(b,scalar-satellite)) or a \
           path to a JSON machine-description file.  Default: the \
           paper's 4-cluster machine.  Description files carry their \
           own interconnect, so $(b,--buses) does not apply to them.")

(* The same SPEC resolution for cell-based sweeps: the selection rides
   in the cell (and so in its cache key).  Description files are
   canonicalised exactly as the serve boundary does, so equal machines
   key equally however they arrive. *)
let machine_sel_of_spec = function
  | None -> Sweep.Paper
  | Some spec ->
    if List.mem spec Family.names then Sweep.Family spec
    else if Sys.file_exists spec then
      match Hcv_explore.Machdesc.of_string (read_file spec) with
      | Ok m -> Sweep.Desc (Hcv_explore.Machdesc.to_string m)
      | Error msg -> or_die (Error (Printf.sprintf "%s: %s" spec msg))
    else
      or_die
        (Error
           (Printf.sprintf
              "unknown machine %S: not a family (one of %s) and not a file"
              spec
              (String.concat ", " Family.names)))

(* ----- bench: run the full pipeline for benchmarks ---------------- *)

let run_benchmark ~buses ~n_loops ~seed name =
  let machine = machine_of ~buses in
  match Specfp.find name with
  | None ->
    Error
      (Hcv_obs.Diag.v ~code:"unknown-benchmark"
         (Printf.sprintf "unknown benchmark %S" name))
  | Some spec ->
    let loops = Specfp.loops ?n_loops ~seed spec in
    Pipeline.run ~machine ~name ~loops ()

let bench_cmd =
  let bench_arg =
    Arg.(value & pos 0 string "all" & info [] ~docv:"BENCHMARK")
  in
  let buses =
    Arg.(value & opt int 1 & info [ "buses" ] ~doc:"Number of register buses.")
  in
  let n_loops =
    Arg.(
      value & opt (some int) None
      & info [ "loops" ] ~doc:"Loops per benchmark (default: per-spec).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload seed.") in
  let run name buses n_loops seed =
    setup_logs ();
    let names =
      if name = "all" then List.map (fun s -> s.Specfp.name) Specfp.all
      else [ name ]
    in
    List.iter
      (fun n ->
        let r = diag_ok (run_benchmark ~buses ~n_loops ~seed n) in
        Format.printf "%a@." Pipeline.pp_summary r)
      names
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run the full profile/select/schedule pipeline for one (or all) \
          synthetic SPECfp2000 benchmarks and report normalised ED2.")
    Term.(const run $ bench_arg $ buses $ n_loops $ seed)

(* ----- table2 ----------------------------------------------------- *)

let table2_cmd =
  let run () =
    setup_logs ();
    let machine = machine_of ~buses:1 in
    let t =
      Tablefmt.create
        ~title:"Table 2: share of execution time per constraint class"
        [
          ("benchmark", Tablefmt.Left);
          ("resource (paper)", Tablefmt.Right);
          ("resource (ours)", Tablefmt.Right);
          ("border (paper)", Tablefmt.Right);
          ("border (ours)", Tablefmt.Right);
          ("recurrence (paper)", Tablefmt.Right);
          ("recurrence (ours)", Tablefmt.Right);
        ]
    in
    List.iter
      (fun spec ->
        let loops = Specfp.loops ~seed:42 spec in
        let res, border, rec_ = Specfp.table2_row machine loops in
        Tablefmt.add_row t
          [
            spec.Specfp.name;
            Tablefmt.cell_pct spec.Specfp.res_share;
            Tablefmt.cell_pct res;
            Tablefmt.cell_pct spec.Specfp.border_share;
            Tablefmt.cell_pct border;
            Tablefmt.cell_pct spec.Specfp.rec_share;
            Tablefmt.cell_pct rec_;
          ])
      Specfp.all;
    Tablefmt.print t
  in
  Cmd.v
    (Cmd.info "table2" ~doc:"Reproduce Table 2 (constraint-class mix).")
    Term.(const run $ const ())

(* ----- schedule: schedule loops from a .loop file ------------------ *)

let schedule_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let buses = Arg.(value & opt int 1 & info [ "buses" ]) in
  let hetero =
    Arg.(
      value & flag
      & info [ "hetero" ]
          ~doc:"Select a heterogeneous configuration first and use it.")
  in
  let run file buses machine hetero =
    setup_logs ();
    let machine = resolve_machine ~buses machine in
    let loops = or_die (load_loops file) in
    if hetero then begin
      let profile = diag_ok (Profile.profile ~machine ~loops ()) in
      let units =
        Units.of_reference ~params:Params.default
          ~n_clusters:(Machine.n_clusters machine)
          profile.Profile.activity
      in
      let ctx = Model.ctx ~params:Params.default ~units () in
      let choice = diag_ok (Select.select_heterogeneous ~ctx ~machine profile) in
      Format.printf "%a@.@." Select.pp_choice choice;
      List.iter
        (fun loop ->
          match
            Hsched.schedule ~ctx ~config:choice.Select.config ~loop ()
          with
          | Ok (sched, stats) ->
            Format.printf "%a@.(IT=%a, MIT=%a, %d pre-placed)@.@."
              Hcv_sched.Schedule.pp sched Q.pp stats.Hsched.it Q.pp
              stats.Hsched.mit stats.Hsched.prePlaced
          | Error d ->
            Format.printf "%s: FAILED: %a@." loop.Loop.name Hcv_obs.Diag.pp d)
        loops
    end
    else
      List.iter
        (fun loop ->
          match
            Hcv_sched.Homo.schedule ~machine
              ~cycle_time:Presets.reference_cycle_time ~loop ()
          with
          | Ok (sched, stats) ->
            Format.printf "%a@.(II=%d, MII=%d)@.@." Hcv_sched.Schedule.pp
              sched stats.Hcv_sched.Homo.ii stats.Hcv_sched.Homo.mii
          | Error msg -> Format.printf "%s: FAILED: %s@." loop.Loop.name msg)
        loops
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Modulo-schedule the loops of a .loop file.")
    Term.(const run $ file $ buses $ machine_arg $ hetero)

(* ----- dot --------------------------------------------------------- *)

let dot_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run file =
    let loops = or_die (load_loops file) in
    List.iter (fun loop -> print_string (Dot.of_loop loop)) loops
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit Graphviz DOT for the loops of a .loop file.")
    Term.(const run $ file)

(* ----- gen --------------------------------------------------------- *)

let gen_cmd =
  let bench = Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ]) in
  let n_loops = Arg.(value & opt (some int) None & info [ "loops" ]) in
  let run bench seed n_loops =
    match Specfp.find bench with
    | None -> or_die (Error (Printf.sprintf "unknown benchmark %S" bench))
    | Some spec ->
      print_string (Dsl.print_all (Specfp.loops ?n_loops ~seed spec))
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:"Generate a synthetic benchmark population as a .loop file.")
    Term.(const run $ bench $ seed $ n_loops)

(* ----- explore ------------------------------------------------------ *)

module E = Hcv_explore
module R = Hcv_resilience
module S = Hcv_serve

(* Cache recovery diagnostics (corrupt lines quarantined, directory
   unusable, ...) go to stderr; stdout stays the deterministic report. *)
let cache_warn d = Printf.eprintf "warning: %s\n%!" (Hcv_obs.Diag.to_string d)

(* Shared engine/cache lifecycle for every engine-backed subcommand
   (explore, fig7, chaos, serve): open the persistent cache with
   recovery warnings to stderr, create the engine, and guarantee
   worker join + cache close however [f] exits. *)
let with_engine ?cache_dir ?progress ~jobs f =
  let cache = Option.map (E.Cache.open_dir ~warn:cache_warn) cache_dir in
  let engine = E.Engine.create ~jobs ?cache ?progress () in
  Fun.protect
    ~finally:(fun () -> E.Engine.shutdown engine)
    (fun () -> f ~cache engine)

(* ----- observability flags (--trace / --metrics) ------------------- *)

let trace_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write the run's span tree to $(docv) as JSONL: one object per \
           span in pre-order, with an explicit depth.  Wall-clock \
           durations and volatile gauges come last in each object so \
           they can be stripped mechanically; everything before them is \
           byte-identical for any --jobs value and cache state.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print the span/counter table to stderr when the run completes.")

(* Run [f] under a collecting root span when --trace or --metrics asked
   for one, under the free null span otherwise (the zero-cost-when-off
   contract).  The metrics table goes to stderr so the deterministic
   stdout of the figures stays untouched. *)
let with_obs ~trace ~metrics name f =
  if trace = None && not metrics then f Hcv_obs.Trace.null
  else begin
    let sp = Hcv_obs.Trace.root name in
    let r = f sp in
    (match Hcv_obs.Trace.export sp with
    | None -> ()
    | Some node ->
      Option.iter
        (fun path -> E.Tracex.write_jsonl ~wall:true ~path node)
        trace;
      if metrics then begin
        Hcv_obs.Metrics.print Format.err_formatter node;
        Format.pp_print_flush Format.err_formatter ()
      end);
    r
  end

(* Parallel, memoised design-space exploration over the synthetic
   SPECfp population: every (benchmark, machine variant) cell runs the
   full profile/select/schedule pipeline on the Hcv_explore engine.
   With --cache the completed cells persist to disk, so a repeated run
   — or --resume after an interruption — only computes what is
   missing; results are reassembled in submission order, making the
   output independent of --jobs and of the cache state. *)
let explore_cmd =
  let bench_arg =
    Arg.(
      value & pos_all string [ "all" ]
      & info [] ~docv:"BENCHMARK"
          ~doc:"Benchmarks to explore (default: the whole population).")
  in
  let buses =
    Arg.(value & opt int 1 & info [ "buses" ] ~doc:"Number of register buses.")
  in
  let n_loops =
    Arg.(
      value & opt (some int) None
      & info [ "loops" ] ~doc:"Loops per benchmark (default: per-spec).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload seed.") in
  let steps =
    Arg.(
      value & opt (some int) None
      & info [ "steps" ]
          ~doc:"Frequency-grid steps (default: unrestricted frequencies).")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:"Worker domains for the sweep (1 = serial; the result is \
                identical for any value).")
  in
  let cache =
    Arg.(
      value & opt (some string) None
      & info [ "cache" ] ~docv:"DIR"
          ~doc:"Persist completed cells to $(docv)/cache.jsonl and reuse \
                them on later runs.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:"Resume an interrupted sweep from --cache: report how many \
                cells were recovered, compute only the rest.")
  in
  let compact =
    Arg.(
      value & flag
      & info [ "compact-cache" ]
          ~doc:"After the sweep, rewrite --cache's file as one \
                integrity-checked record per live entry (atomic \
                write-temp-then-rename), dropping superseded duplicates, \
                corrupt lines and any torn tail.")
  in
  let csv =
    Arg.(
      value & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:"Append per-stage telemetry (cells, hits, wall clock) to \
                $(docv).")
  in
  let show_config =
    Arg.(
      value & flag
      & info [ "show-config" ]
          ~doc:"Also print each benchmark's selected heterogeneous \
                configuration.")
  in
  let run benches buses machine n_loops seed steps jobs cache resume compact
      csv show_config trace metrics =
    setup_logs ();
    if resume && cache = None then
      or_die (Error "--resume needs --cache DIR");
    if compact && cache = None then
      or_die (Error "--compact-cache needs --cache DIR");
    let machine = machine_sel_of_spec machine in
    let names =
      if List.mem "all" benches then
        List.map (fun s -> s.Specfp.name) Specfp.all
      else benches
    in
    List.iter
      (fun n ->
        if Specfp.find n = None then
          or_die (Error (Printf.sprintf "unknown benchmark %S" n)))
      names;
    let cells =
      List.map
        (fun name ->
          Sweep.cell ~buses ?n_loops ~seed ?grid_steps:steps ~machine name)
        names
    in
    let progress = E.Progress.create ~verbose:true ?csv () in
    with_engine ?cache_dir:cache ~progress ~jobs
      (fun ~cache engine ->
        (match (cache, resume) with
        | Some c, true ->
          Printf.eprintf "resuming: %d completed cells on disk\n%!"
            (E.Cache.stats c).E.Cache.entries
        | _, _ -> ());
        let loops_of (c : Sweep.cell) =
          Specfp.loops ?n_loops:c.Sweep.n_loops ~seed:c.Sweep.seed
            (Option.get (Specfp.find c.Sweep.bench))
        in
        let outcomes =
          with_obs ~trace ~metrics "explore" (fun obs ->
              Sweep.run engine ~label:"explore" ~obs ~loops_of cells)
        in
        let t =
          Tablefmt.create
            [
              ("benchmark", Tablefmt.Left);
              ("ED2 ratio", Tablefmt.Right);
              ("time ratio", Tablefmt.Right);
              ("energy ratio", Tablefmt.Right);
              ("fallbacks", Tablefmt.Right);
            ]
        in
        let ok =
          List.filter
            (fun (o : Sweep.outcome) ->
              match o.Sweep.error with
              | None -> true
              | Some msg ->
                Printf.printf "  !! %s failed: %s\n%!" o.Sweep.bench msg;
                false)
            outcomes
        in
        List.iter
          (fun (o : Sweep.outcome) ->
            Tablefmt.add_row t
              [
                o.Sweep.bench;
                Tablefmt.cell_f o.Sweep.ed2_ratio;
                Tablefmt.cell_f o.Sweep.time_ratio;
                Tablefmt.cell_f o.Sweep.energy_ratio;
                string_of_int o.Sweep.fallbacks;
              ])
          ok;
        if ok <> [] then begin
          Tablefmt.add_sep t;
          Tablefmt.add_row t
            [
              "mean";
              Tablefmt.cell_f
                (Listx.mean
                   (List.map (fun (o : Sweep.outcome) -> o.Sweep.ed2_ratio) ok));
              "-"; "-"; "-";
            ]
        end;
        Tablefmt.print t;
        (* Decode each choice against its own cell's machine, which
           --machine may have made a family or a description file.
           Failed cells carry no choice and print nothing. *)
        if show_config then
          List.iter2
            (fun c (o : Sweep.outcome) ->
              let machine = Sweep.machine_of_cell c in
              match Sweep.choice_of_string ~machine o.Sweep.hetero with
              | Some choice ->
                Format.printf "@.%s:@.%a@." o.Sweep.bench Select.pp_choice
                  choice
              | None -> ())
            cells outcomes;
        (match cache with
        | Some c ->
          let s = E.Cache.stats c in
          Printf.eprintf "cache: %d hits, %d misses, %d entries\n%!"
            s.E.Cache.hits s.E.Cache.misses s.E.Cache.entries;
          if compact then (
            match E.Cache.compact c with
            | Ok n -> Printf.eprintf "cache: compacted to %d records\n%!" n
            | Error d -> cache_warn d)
        | None -> ()))
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Explore the design space over the benchmark population on a \
          parallel worker pool, with a persistent result cache and \
          checkpoint/resume.")
    Term.(
      const run $ bench_arg $ buses $ machine_arg $ n_loops $ seed $ steps
      $ jobs $ cache $ resume $ compact $ csv $ show_config $ trace_arg
      $ metrics_arg)

(* ----- fig7: the paper's Figure 7 through the staged pipeline ------- *)

let fig7_cmd =
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:
            "Small variant: 1 bus, 6 loops per benchmark (the \
             golden-pinned configuration).")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:"Worker domains for the sweep (1 = serial; stdout and the \
                deterministic trace are identical for any value).")
  in
  let cache =
    Arg.(
      value & opt (some string) None
      & info [ "cache" ] ~docv:"DIR"
          ~doc:"Persist completed cells to $(docv) and reuse them on later \
                runs (each cell's trace rides the cache, so warm and cold \
                runs emit the same spans).")
  in
  let run quick jobs cache trace metrics =
    setup_logs ();
    let buses_list = if quick then [ 1 ] else [ 1; 2 ] in
    let n_loops = if quick then Some 6 else Some 10 in
    let steps_list = [ None; Some 16; Some 8; Some 4 ] in
    let cells =
      List.concat_map
        (fun buses ->
          List.concat_map
            (fun steps ->
              List.map
                (fun spec ->
                  Sweep.cell ~buses ?n_loops ~seed:42 ?grid_steps:steps
                    spec.Specfp.name)
                Specfp.all)
            steps_list)
        buses_list
    in
    with_engine ?cache_dir:cache ~jobs
      (fun ~cache:_ engine ->
        with_obs ~trace ~metrics "fig7" (fun obs ->
            let loops_of (c : Sweep.cell) =
              Specfp.loops ?n_loops:c.Sweep.n_loops ~seed:c.Sweep.seed
                (Option.get (Specfp.find c.Sweep.bench))
            in
            Printf.printf
              "Figure 7: mean ED2 ratio vs number of supported frequencies\n%!";
            let outcomes =
              ref (Sweep.run engine ~label:"fig7" ~obs ~loops_of cells)
            in
            let n_specs = List.length Specfp.all in
            let next_group () =
              let g = Listx.take n_specs !outcomes in
              outcomes := Listx.drop n_specs !outcomes;
              g
            in
            let t =
              Tablefmt.create
                [
                  ("buses", Tablefmt.Right);
                  ("any freq", Tablefmt.Right);
                  ("16 freqs", Tablefmt.Right);
                  ("8 freqs", Tablefmt.Right);
                  ("4 freqs", Tablefmt.Right);
                ]
            in
            List.iter
              (fun buses ->
                let row =
                  List.map
                    (fun _steps ->
                      let ok =
                        List.filter
                          (fun (o : Sweep.outcome) -> o.Sweep.error = None)
                          (next_group ())
                      in
                      Tablefmt.cell_f
                        (Listx.mean
                           (List.map
                              (fun (o : Sweep.outcome) -> o.Sweep.ed2_ratio)
                              ok)))
                    steps_list
                in
                Tablefmt.add_row t (string_of_int buses :: row))
              buses_list;
            Tablefmt.print t))
  in
  Cmd.v
    (Cmd.info "fig7"
       ~doc:
         "Reproduce the paper's Figure 7 (mean ED2 ratio vs number of \
          supported frequencies) through the staged pipeline, with \
          per-stage span tracing (--trace) and counters (--metrics).")
    Term.(const run $ quick $ jobs $ cache $ trace_arg $ metrics_arg)

(* ----- frontier: multi-objective Pareto selection ------------------- *)

(* Same engine-backed sweep as explore, but each cell also runs the
   optional frontier stage: the §3.3 selection sweep folded into a
   Pareto frontier over {time, energy, ED2, EDP, power}.  Stdout is the
   fig7-style regime report; --csv dumps the member vectors.  Both are
   byte-identical for any --jobs value and cache state. *)
let frontier_cmd =
  let bench_arg =
    Arg.(
      value & pos_all string [ "all" ]
      & info [] ~docv:"BENCHMARK"
          ~doc:"Benchmarks to sweep (default: the whole population).")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"Small variant: 1 bus, 6 loops per benchmark (the \
                golden-pinned configuration).")
  in
  let objectives =
    Arg.(
      value & opt (some string) None
      & info [ "objectives" ] ~docv:"LIST"
          ~doc:"Comma-separated objective set (subset of \
                time,energy,ed2,edp,power; default: all five).")
  in
  let caps =
    Arg.(
      value & opt_all string []
      & info [ "cap" ] ~docv:"OBJ<=BOUND"
          ~doc:"Feasibility constraint, e.g. --cap 'energy<=2.5e4' for \
                the fastest point under an energy cap or --cap \
                'time<=1.2e5' for the lowest energy under a deadline.  \
                Repeatable.")
  in
  let buses =
    Arg.(value & opt int 1 & info [ "buses" ] ~doc:"Number of register buses.")
  in
  let n_loops =
    Arg.(
      value & opt (some int) None
      & info [ "loops" ] ~doc:"Loops per benchmark (default: per-spec).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload seed.") in
  let steps =
    Arg.(
      value & opt (some int) None
      & info [ "steps" ]
          ~doc:"Frequency-grid steps (default: unrestricted frequencies).")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:"Worker domains for the sweep (1 = serial; the output is \
                identical for any value).")
  in
  let cache =
    Arg.(
      value & opt (some string) None
      & info [ "cache" ] ~docv:"DIR"
          ~doc:"Persist completed cells to $(docv) and reuse them on later \
                runs (frontier cells share the directory with explore/fig7 \
                cells without colliding).")
  in
  let csv =
    Arg.(
      value & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:"Write the frontier members as CSV to $(docv) ('-' for \
                stdout, before the report).")
  in
  let schedule_corner =
    Arg.(
      value & opt (some string) None
      & info [ "schedule-corner" ] ~docv:"OBJ"
          ~doc:"After the sweep, take each benchmark's frontier corner \
                minimising $(docv) (one of time,energy,ed2,edp,power) and \
                schedule it through the full pipeline, reporting the \
                measured — not predicted — activity, model ED2 and \
                fallback count.")
  in
  let parse_spec objectives caps =
    let objectives =
      match objectives with
      | None -> Hcv_core.Frontier.all_objectives
      | Some s ->
        List.map
          (fun name ->
            let name = String.trim name in
            match Hcv_core.Frontier.objective_of_string name with
            | Some o -> o
            | None ->
              or_die
                (Error
                   (Printf.sprintf
                      "unknown objective %S (one of time,energy,ed2,edp,power)"
                      name)))
          (String.split_on_char ',' s)
    in
    if objectives = [] then or_die (Error "--objectives is empty");
    let caps =
      List.map
        (fun s ->
          match Hcv_core.Frontier.cap_of_string s with
          | Ok c -> c
          | Error msg -> or_die (Error msg))
        caps
    in
    Hcv_core.Frontier.spec ~objectives ~caps ()
  in
  let run benches quick objectives caps buses n_loops seed steps jobs cache
      csv schedule_corner trace metrics =
    setup_logs ();
    let spec = parse_spec objectives caps in
    let corner_obj =
      Option.map
        (fun name ->
          match Hcv_core.Frontier.objective_of_string (String.trim name) with
          | Some o -> o
          | None ->
            or_die
              (Error
                 (Printf.sprintf
                    "unknown objective %S (one of time,energy,ed2,edp,power)"
                    name)))
        schedule_corner
    in
    let buses = if quick then 1 else buses in
    let n_loops = if quick then Some 6 else n_loops in
    let names =
      if List.mem "all" benches then
        List.map (fun s -> s.Specfp.name) Specfp.all
      else benches
    in
    List.iter
      (fun n ->
        if Specfp.find n = None then
          or_die (Error (Printf.sprintf "unknown benchmark %S" n)))
      names;
    let cells =
      List.map
        (fun name ->
          Sweep.cell ~buses ?n_loops ~seed ?grid_steps:steps ~frontier:spec
            name)
        names
    in
    with_engine ?cache_dir:cache ~jobs (fun ~cache:_ engine ->
        let loops_of (c : Sweep.cell) =
          Specfp.loops ?n_loops:c.Sweep.n_loops ~seed:c.Sweep.seed
            (Option.get (Specfp.find c.Sweep.bench))
        in
        let outcomes =
          with_obs ~trace ~metrics "frontier" (fun obs ->
              Sweep.run engine ~label:"frontier" ~obs ~loops_of cells)
        in
        let fronts =
          List.filter_map
            (fun ((c : Sweep.cell), (o : Sweep.outcome)) ->
              match o.Sweep.error with
              | Some msg ->
                Printf.printf "  !! %s failed: %s\n%!" o.Sweep.bench msg;
                None
              | None ->
                let machine = Sweep.machine_of_cell c in
                let choices =
                  List.filter_map
                    (Sweep.choice_of_string ~machine)
                    o.Sweep.frontier
                in
                Some
                  (o.Sweep.bench, Frontier_report.rebuild ~spec choices))
            (List.combine cells outcomes)
        in
        (match csv with
        | None -> ()
        | Some path ->
          let lines =
            Frontier_report.csv_header
            :: List.concat_map
                 (fun (bench, f) -> Frontier_report.csv_rows ~bench f)
                 fronts
          in
          let body = String.concat "\n" lines ^ "\n" in
          if path = "-" then print_string body
          else begin
            let oc = open_out path in
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () -> output_string oc body)
          end);
        Format.printf "%a@?" Frontier_report.pp_report fronts;
        (* --schedule-corner: run the chosen non-ED2 corner through the
           actual scheduler, so the report shows measured behaviour, not
           just the selection model's predictions. *)
        match corner_obj with
        | None -> ()
        | Some obj ->
          let t =
            Tablefmt.create
              ~title:
                (Printf.sprintf "scheduled min-%s corner (measured)"
                   (Frontier.objective_name obj))
              [
                ("benchmark", Tablefmt.Left);
                ("predicted ED2", Tablefmt.Right);
                ("measured ED2", Tablefmt.Right);
                ("time ns", Tablefmt.Right);
                ("energy", Tablefmt.Right);
                ("fallbacks", Tablefmt.Right);
              ]
          in
          List.iter
            (fun (bench, front) ->
              match Frontier.min_by front obj with
              | None -> ()
              | Some corner -> (
                let choice = corner.Frontier.item in
                let machine =
                  Sweep.machine_of_cell
                    (Sweep.cell ~buses ?n_loops ~seed ?grid_steps:steps
                       ~frontier:spec bench)
                in
                let loops =
                  Specfp.loops ?n_loops ~seed
                    (Option.get (Specfp.find bench))
                in
                match Profile.profile ~machine ~loops () with
                | Error d ->
                  Printf.printf "  !! %s: %s\n%!" bench
                    (Hcv_obs.Diag.to_string d)
                | Ok profile ->
                  let units =
                    Units.of_reference ~params:Params.default
                      ~n_clusters:(Machine.n_clusters machine)
                      profile.Profile.activity
                  in
                  let ctx = Model.ctx ~params:Params.default ~units () in
                  let act, ed2, n_causes =
                    Pipeline.measure_config ~ctx ~machine ~profile
                      ~config:choice.Select.config ()
                  in
                  let energy =
                    Model.total
                      (Model.energy ctx ~config:choice.Select.config act)
                  in
                  Tablefmt.add_row t
                    [
                      bench;
                      Tablefmt.cell_f choice.Select.predicted_ed2;
                      Tablefmt.cell_f ed2;
                      Tablefmt.cell_f act.Activity.exec_time_ns;
                      Tablefmt.cell_f energy;
                      string_of_int n_causes;
                    ]))
            fronts;
          Tablefmt.print t)
  in
  Cmd.v
    (Cmd.info "frontier"
       ~doc:
         "Compute the Pareto frontier of the configuration-selection \
          sweep per benchmark (objectives over time/energy/ED2/EDP/power \
          with optional caps) and report the objective regimes; the ED2 \
          corner is exactly the paper's scalarised selection.")
    Term.(
      const run $ bench_arg $ quick $ objectives $ caps $ buses $ n_loops
      $ seed $ steps $ jobs $ cache $ csv $ schedule_corner $ trace_arg
      $ metrics_arg)

(* ----- families: sweep the named asymmetric machine families -------- *)

(* The capability-heterogeneity counterpart of explore: the same
   engine-backed sweep, fanned out over the named machine families
   (with the paper machine riding along as the symmetric baseline), so
   the normalised ratios are directly comparable across cluster
   mixes. *)
let families_cmd =
  let bench_arg =
    Arg.(
      value & pos_all string [ "all" ]
      & info [] ~docv:"BENCHMARK"
          ~doc:"Benchmarks to sweep (default: the whole population).")
  in
  let buses =
    Arg.(value & opt int 1 & info [ "buses" ] ~doc:"Number of register buses.")
  in
  let n_loops =
    Arg.(
      value & opt (some int) None
      & info [ "loops" ] ~doc:"Loops per benchmark (default: per-spec).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload seed.") in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:"Worker domains for the sweep (1 = serial; the output is \
                identical for any value).")
  in
  let cache =
    Arg.(
      value & opt (some string) None
      & info [ "cache" ] ~docv:"DIR"
          ~doc:"Persist completed cells to $(docv) and reuse them on later \
                runs (family cells share the directory with explore/fig7 \
                cells without colliding).")
  in
  let run benches buses n_loops seed jobs cache trace metrics =
    setup_logs ();
    let names =
      if List.mem "all" benches then
        List.map (fun s -> s.Specfp.name) Specfp.all
      else benches
    in
    List.iter
      (fun n ->
        if Specfp.find n = None then
          or_die (Error (Printf.sprintf "unknown benchmark %S" n)))
      names;
    let machines =
      ("paper", Sweep.Paper)
      :: List.map (fun f -> (f, Sweep.Family f)) Family.names
    in
    let cells =
      List.concat_map
        (fun (_, sel) ->
          List.map
            (fun name -> Sweep.cell ~buses ?n_loops ~seed ~machine:sel name)
            names)
        machines
    in
    with_engine ?cache_dir:cache ~jobs (fun ~cache:_ engine ->
        let loops_of (c : Sweep.cell) =
          Specfp.loops ?n_loops:c.Sweep.n_loops ~seed:c.Sweep.seed
            (Option.get (Specfp.find c.Sweep.bench))
        in
        let outcomes =
          ref
            (with_obs ~trace ~metrics "families" (fun obs ->
                 Sweep.run engine ~label:"families" ~obs ~loops_of cells))
        in
        let n_benches = List.length names in
        let next_group () =
          let g = Listx.take n_benches !outcomes in
          outcomes := Listx.drop n_benches !outcomes;
          g
        in
        let t =
          Tablefmt.create
            ~title:"machine families: normalised ratios per benchmark"
            [
              ("machine", Tablefmt.Left);
              ("benchmark", Tablefmt.Left);
              ("ED2 ratio", Tablefmt.Right);
              ("time ratio", Tablefmt.Right);
              ("energy ratio", Tablefmt.Right);
              ("fallbacks", Tablefmt.Right);
            ]
        in
        List.iteri
          (fun gi (label, _) ->
            if gi > 0 then Tablefmt.add_sep t;
            let ok =
              List.filter
                (fun (o : Sweep.outcome) ->
                  match o.Sweep.error with
                  | None -> true
                  | Some msg ->
                    Printf.printf "  !! %s/%s failed: %s\n%!" label
                      o.Sweep.bench msg;
                    false)
                (next_group ())
            in
            List.iter
              (fun (o : Sweep.outcome) ->
                Tablefmt.add_row t
                  [
                    label;
                    o.Sweep.bench;
                    Tablefmt.cell_f o.Sweep.ed2_ratio;
                    Tablefmt.cell_f o.Sweep.time_ratio;
                    Tablefmt.cell_f o.Sweep.energy_ratio;
                    string_of_int o.Sweep.fallbacks;
                  ])
              ok;
            if ok <> [] then
              Tablefmt.add_row t
                [
                  label;
                  "mean";
                  Tablefmt.cell_f
                    (Listx.mean
                       (List.map
                          (fun (o : Sweep.outcome) -> o.Sweep.ed2_ratio)
                          ok));
                  "-"; "-"; "-";
                ])
          machines;
        Tablefmt.print t)
  in
  Cmd.v
    (Cmd.info "families"
       ~doc:
         "Sweep the named capability-asymmetric machine families \
          (big-little, fp-heavy, scalar-satellite) plus the paper's \
          symmetric machine over the benchmark population and report \
          normalised ED2/time/energy per (machine, benchmark) pair.")
    Term.(
      const run $ bench_arg $ buses $ n_loops $ seed $ jobs $ cache
      $ trace_arg $ metrics_arg)

(* ----- chaos: fault-injection drill for the exploration stack ------- *)

(* Three sweeps over the same cells: a fault-free baseline, a run under
   an armed fault plan (task raises, torn cache writes, slowed
   workers), and a recovery run warm-started from the faulted run's
   cache.  The engine's supervision and the cache's recovery make all
   three reports byte-identical; this command asserts exactly that, so
   CI can drill the resilience machinery end to end. *)
let chaos_cmd =
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Fault-plan seed.")
  in
  let jobs =
    Arg.(
      value & opt int 2
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:"Worker domains (faults fire on workers too).")
  in
  let n_loops =
    Arg.(
      value & opt int 4
      & info [ "loops" ] ~doc:"Loops per benchmark (small keeps the drill \
                               fast).")
  in
  let log =
    Arg.(
      value & opt (some string) None
      & info [ "log" ] ~docv:"FILE"
          ~doc:"Append one JSON record per armed fault point (its firing \
                count) to $(docv) (JSONL).")
  in
  let run seed jobs n_loops log trace metrics =
    setup_logs ();
    let cells =
      List.map
        (fun (s : Specfp.spec) -> Sweep.cell ~buses:1 ~n_loops ~seed:42 s.Specfp.name)
        Specfp.all
    in
    let loops_of (c : Sweep.cell) =
      Specfp.loops ?n_loops:c.Sweep.n_loops ~seed:c.Sweep.seed
        (Option.get (Specfp.find c.Sweep.bench))
    in
    (* One rendered report per sweep; byte-compared below. *)
    let render tag ~cache_dir obs =
      with_engine ~cache_dir ~jobs
        (fun ~cache:_ engine ->
          let outcomes = Sweep.run engine ~label:tag ~obs ~loops_of cells in
          let t =
            Tablefmt.create
              [
                ("benchmark", Tablefmt.Left);
                ("ED2 ratio", Tablefmt.Right);
                ("time ratio", Tablefmt.Right);
                ("energy ratio", Tablefmt.Right);
                ("fallbacks", Tablefmt.Right);
                ("error", Tablefmt.Left);
              ]
          in
          List.iter
            (fun (o : Sweep.outcome) ->
              Tablefmt.add_row t
                [
                  o.Sweep.bench;
                  Tablefmt.cell_f o.Sweep.ed2_ratio;
                  Tablefmt.cell_f o.Sweep.time_ratio;
                  Tablefmt.cell_f o.Sweep.energy_ratio;
                  string_of_int o.Sweep.fallbacks;
                  Option.value o.Sweep.error ~default:"-";
                ])
            outcomes;
          Tablefmt.render t)
    in
    let base =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "hcvliw-chaos-%d-%d" (Unix.getpid ()) seed)
    in
    let dir_a = Filename.concat base "baseline" in
    let dir_b = Filename.concat base "faulted" in
    (* Remove whatever the drill left behind, whole tree — not a fixed
       file list, so renamed cache artefacts can't strand a directory. *)
    let cleanup () =
      let rec rm path =
        match Sys.is_directory path with
        | true ->
          Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
          (try Sys.rmdir path with Sys_error _ -> ())
        | false -> ( try Sys.remove path with Sys_error _ -> ())
        | exception Sys_error _ -> ()
      in
      rm base
    in
    cleanup ();
    (* [exit] does not unwind [Fun.protect], so the protected region
       only reports divergence; the process exits after cleanup ran. *)
    let ok =
      Fun.protect ~finally:cleanup (fun () ->
        with_obs ~trace ~metrics "chaos" (fun obs ->
            let baseline = render "chaos-baseline" ~cache_dir:dir_a obs in
            (* Transient task raises stay under the retry policy's spare
               attempts, so supervision must recover every one; torn
               writes only damage the disk file, never the report. *)
            let plan =
              R.Inject.plan ~seed
                [
                  R.Inject.spec ~max_fires:2 R.Inject.Task_raise;
                  R.Inject.spec ~max_fires:3 R.Inject.Torn_write;
                  R.Inject.spec ~max_fires:4 R.Inject.Slow_cell;
                ]
            in
            let faulted =
              R.Inject.with_plan plan (fun () ->
                  render "chaos-faulted" ~cache_dir:dir_b obs)
            in
            (* Recovery: reopen the faulted run's cache (quarantining
               its torn lines) and re-sweep warm. *)
            let recovered = render "chaos-recovered" ~cache_dir:dir_b obs in
            Printf.eprintf "chaos: injected%s\n%!"
              (String.concat ""
                 (List.map
                    (fun (p, n) ->
                      Printf.sprintf " %s=%d" (R.Inject.point_name p) n)
                    (R.Inject.fires plan)));
            (match log with
            | None -> ()
            | Some path ->
              let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
              List.iter
                (fun (p, n) ->
                  output_string oc
                    (E.Jsonx.to_string
                       (E.Jsonx.Obj
                          [
                            ("seed", E.Jsonx.Num (float_of_int seed));
                            ("point", E.Jsonx.Str (R.Inject.point_name p));
                            ("fires", E.Jsonx.Num (float_of_int n));
                          ]));
                  output_char oc '\n')
                (R.Inject.fires plan);
              close_out oc);
            print_string baseline;
            let ok_faulted = String.equal baseline faulted in
            let ok_recovered = String.equal baseline recovered in
            if ok_faulted && ok_recovered then
              Printf.eprintf
                "chaos: faulted and recovered reports byte-identical to the \
                 fault-free run\n%!"
            else begin
              if not ok_faulted then
                Printf.eprintf
                  "chaos: FAULTED report diverged from the baseline\n%!";
              if not ok_recovered then
                Printf.eprintf
                  "chaos: RECOVERED report diverged from the baseline\n%!"
            end;
            ok_faulted && ok_recovered))
    in
    if not ok then exit 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Drill the resilience machinery: sweep the benchmark population \
          fault-free, again under a seeded fault-injection plan (task \
          raises, torn cache writes, slowed workers), then once more warm \
          from the damaged cache — and assert all three reports are \
          byte-identical.")
    Term.(const run $ seed $ jobs $ n_loops $ log $ trace_arg $ metrics_arg)

(* ----- serve / loadgen: the scheduling-as-a-service plane ----------- *)

let socket_arg =
  Arg.(
    value & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path (exactly one of --socket/--tcp).")

let tcp_arg =
  Arg.(
    value & opt (some string) None
    & info [ "tcp" ] ~docv:"HOST:PORT" ~doc:"TCP endpoint.")

let parse_tcp hp =
  match String.rindex_opt hp ':' with
  | None -> Error (Printf.sprintf "bad endpoint %S (want HOST:PORT)" hp)
  | Some i -> (
    let host = String.sub hp 0 i in
    match int_of_string_opt (String.sub hp (i + 1) (String.length hp - i - 1)) with
    | Some port when port > 0 -> Ok (host, port)
    | _ -> Error (Printf.sprintf "bad endpoint %S (want HOST:PORT)" hp))

let sockaddr_of ~socket ~tcp =
  match (socket, tcp) with
  | Some p, None -> Unix.ADDR_UNIX p
  | None, Some hp ->
    let host, port = or_die (parse_tcp hp) in
    let addr =
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found -> Unix.inet_addr_of_string host
    in
    Unix.ADDR_INET (addr, port)
  | _ -> or_die (Error "exactly one of --socket or --tcp is required")

let serve_cmd =
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:"Worker domains shared by every request (responses are \
                identical for any value).")
  in
  let cache =
    Arg.(
      value & opt (some string) None
      & info [ "cache" ] ~docv:"DIR"
          ~doc:"Serve from (and warm) the persistent result cache in \
                $(docv) — the same cache the explore/fig7 sweeps use.")
  in
  let batch_max =
    Arg.(
      value & opt int 256
      & info [ "batch-max" ] ~docv:"N"
          ~doc:"Cap on run requests dispatched as one engine fan-out.")
  in
  let max_requests =
    Arg.(
      value & opt (some int) None
      & info [ "max-requests" ] ~docv:"N"
          ~doc:"Drain and exit after answering $(docv) requests (CI smoke \
                mode).")
  in
  let default_deadline_ms =
    Arg.(
      value & opt (some int) None
      & info [ "default-deadline-ms" ] ~docv:"MS"
          ~doc:"Server-side deadline compiled onto every run request that \
                does not carry its own deadline_ms (default: none).")
  in
  let idle_timeout =
    Arg.(
      value & opt float 300.
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:"Close connections idle for $(docv) seconds.")
  in
  let slow_timeout =
    Arg.(
      value & opt float 10.
      & info [ "slow-timeout" ] ~docv:"SECONDS"
          ~doc:"Close connections whose request line fails to complete \
                within $(docv) seconds (slowloris defence).")
  in
  let max_pending =
    Arg.(
      value & opt int 512
      & info [ "max-pending" ] ~docv:"N"
          ~doc:"Per-connection backlog cap: complete request lines beyond \
                $(docv) are answered with structured overloaded errors.")
  in
  let max_out =
    Arg.(
      value & opt int (8 lsl 20)
      & info [ "max-out" ] ~docv:"BYTES"
          ~doc:"Close a connection whose unread response backlog exceeds \
                $(docv) bytes (slow-reader defence).")
  in
  let drain_grace =
    Arg.(
      value & opt float 5.
      & info [ "drain-grace" ] ~docv:"SECONDS"
          ~doc:"Bound on the graceful drain after shutdown/--max-requests.")
  in
  let run socket tcp jobs cache batch_max max_requests default_deadline_ms
      idle_timeout slow_timeout max_pending max_out drain_grace trace metrics =
    setup_logs ();
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let listen =
      match (socket, tcp) with
      | Some p, None -> (
        try S.Server.listen_unix p
        with Failure msg -> or_die (Error msg))
      | None, Some hp ->
        let host, port = or_die (parse_tcp hp) in
        S.Server.listen_tcp ~host ~port
      | _ -> or_die (Error "exactly one of --socket or --tcp is required")
    in
    with_engine ?cache_dir:cache ~jobs (fun ~cache:_ engine ->
        let dispatch = S.Dispatch.create ?default_deadline_ms engine in
        let server =
          S.Server.create ~batch_max ?max_requests
            ~idle_timeout_s:idle_timeout ~slow_timeout_s:slow_timeout
            ~max_pending ~max_out ~drain_grace_s:drain_grace ~dispatch listen
        in
        Printf.eprintf "serve: listening (%d worker%s)\n%!" jobs
          (if jobs = 1 then "" else "s");
        with_obs ~trace ~metrics "serve" (fun obs ->
            S.Server.run ~obs server);
        Printf.eprintf "serve: answered %d requests (%d errors, %d shed)\n%!"
          (S.Dispatch.served dispatch)
          (S.Dispatch.errors dispatch)
          (S.Dispatch.shed dispatch));
    (* The daemon owns its socket file; leave no stale one behind. *)
    Option.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      socket
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the scheduling daemon: accept JSONL explore/schedule \
          requests over a Unix or TCP socket, batch concurrent requests \
          onto one shared worker pool and one warm persistent cache, and \
          answer each with a structured (byte-deterministic) response \
          line.  Overload protection: per-request deadlines, bounded \
          backlogs with deterministic shedding, idle/slowloris timeouts \
          and graceful drain.")
    Term.(
      const run $ socket_arg $ tcp_arg $ jobs $ cache $ batch_max
      $ max_requests $ default_deadline_ms $ idle_timeout $ slow_timeout
      $ max_pending $ max_out $ drain_grace $ trace_arg $ metrics_arg)

let loadgen_cmd =
  let requests =
    Arg.(
      value & opt int 50
      & info [ "requests" ] ~docv:"N" ~doc:"Requests to issue.")
  in
  let concurrency =
    Arg.(
      value & opt int 4
      & info [ "concurrency" ] ~docv:"K"
          ~doc:"Concurrent client connections (round-robin request split).")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Request-stream seed.")
  in
  let n_loops =
    Arg.(
      value & opt int 2
      & info [ "loops" ] ~doc:"Loops per benchmark in explore requests.")
  in
  let mix =
    Arg.(
      value
      & opt (enum [ ("clean", S.Load.Clean); ("full", S.Load.Full) ])
          S.Load.Full
      & info [ "mix" ] ~docv:"MIX"
          ~doc:"Request mix: $(b,clean) (well-formed only) or $(b,full) \
                (adds malformed and strict-budget requests).")
  in
  let transcript =
    Arg.(
      value & opt (some string) None
      & info [ "transcript" ] ~docv:"FILE"
          ~doc:"Write one \"INDEX\\tRESPONSE\" line per request, sorted by \
                issue index — byte-comparable across runs.")
  in
  let json =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the requests/s + latency summary to $(docv) instead \
                of stdout.")
  in
  let shutdown =
    Arg.(
      value & flag
      & info [ "shutdown" ]
          ~doc:"Send a shutdown request to the daemon when done.")
  in
  let deadline_ms =
    Arg.(
      value & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Stamp every generated request with this deadline_ms \
                (0 is the fast-fail probe).")
  in
  let run socket tcp requests concurrency seed n_loops mix transcript json
      shutdown deadline_ms =
    setup_logs ();
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let addr = sockaddr_of ~socket ~tcp in
    let connect () =
      let fd =
        Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0
      in
      (try Unix.connect fd addr
       with Unix.Unix_error (e, _, _) ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         or_die
           (Error
              (Printf.sprintf "cannot connect to the daemon: %s"
                 (Unix.error_message e))));
      fd
    in
    let lines = S.Load.requests ~mix ~n_loops ~seed requests in
    let lines =
      match deadline_ms with
      | None -> lines
      | Some ms -> List.map (S.Load.with_deadline ms) lines
    in
    let numbered = List.mapi (fun i l -> (i, l)) lines in
    let concurrency = max 1 concurrency in
    let chunks =
      List.init concurrency (fun w ->
          List.filter (fun (i, _) -> i mod concurrency = w) numbered)
    in
    (* One connection per worker; requests on a connection are issued
       synchronously so per-request latency is honest.  A connection
       the daemon closed mid-chunk marks its remaining requests as
       transport errors instead of killing the whole run. *)
    let run_chunk chunk =
      if chunk = [] then []
      else begin
        let fd = connect () in
        Fun.protect
          ~finally:(fun () ->
            try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            let ic = Unix.in_channel_of_descr fd in
            let oc = Unix.out_channel_of_descr fd in
            List.map
              (fun (i, line) ->
                let t0 = Unix.gettimeofday () in
                match
                  output_string oc line;
                  output_char oc '\n';
                  flush oc;
                  input_line ic
                with
                | resp ->
                  (Some ((Unix.gettimeofday () -. t0) *. 1e9), (i, Some resp))
                | exception (End_of_file | Sys_error _) -> (None, (i, None)))
              chunk)
      end
    in
    let pool = E.Pool.create ~jobs:concurrency () in
    let t0 = Unix.gettimeofday () in
    let per_chunk =
      Fun.protect
        ~finally:(fun () -> E.Pool.shutdown pool)
        (fun () -> E.Pool.map pool run_chunk chunks)
    in
    let wall_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
    let all = List.concat per_chunk in
    (* Percentiles are computed over successfully answered requests
       only: a shed request or a dead connection is not a latency
       sample. *)
    let latencies_ns =
      List.filter_map
        (fun (lat, (_, resp)) ->
          match (lat, Option.map S.Load.classify resp) with
          | Some ns, Some S.Load.Ok_answer -> Some ns
          | _ -> None)
        all
    in
    let responses =
      List.sort
        (fun (i, _) (j, _) -> compare (i : int) j)
        (List.map snd all)
    in
    let ok, errors, shed, deadline_exceeded, transport =
      List.fold_left
        (fun (ok, err, shed, dl, tr) (_, resp) ->
          match Option.map S.Load.classify resp with
          | Some S.Load.Ok_answer -> (ok + 1, err, shed, dl, tr)
          | Some S.Load.Shed -> (ok, err + 1, shed + 1, dl, tr)
          | Some S.Load.Deadline_exceeded -> (ok, err + 1, shed, dl + 1, tr)
          | Some S.Load.Error_answer -> (ok, err + 1, shed, dl, tr)
          | None -> (ok, err, shed, dl, tr + 1))
        (0, 0, 0, 0, 0) responses
    in
    (match transcript with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      List.iter
        (fun (i, resp) ->
          Printf.fprintf oc "%06d\t%s\n" i
            (Option.value resp ~default:"#transport-error"))
        responses;
      close_out oc);
    if shutdown then begin
      let fd = connect () in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let ic = Unix.in_channel_of_descr fd in
          let oc = Unix.out_channel_of_descr fd in
          output_string oc "{\"id\":\"loadgen-shutdown\",\"op\":\"shutdown\"}\n";
          flush oc;
          ignore (input_line ic))
    end;
    let summary =
      E.Jsonx.to_string
        (S.Load.summary_json ~shed ~deadline_exceeded ~transport ~requests
           ~concurrency ~wall_ns ~ok ~errors ~latencies_ns ())
    in
    match json with
    | None -> print_endline summary
    | Some path ->
      let oc = open_out path in
      output_string oc summary;
      output_char oc '\n';
      close_out oc
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive a running daemon with a deterministic (seeded) request \
          stream over concurrent connections and report requests/s plus \
          p50/p99 latency; with --transcript, responses are written in \
          issue order for byte-comparison across runs.  Shed and \
          deadline-exceeded answers are tallied separately from \
          transport errors, and percentiles cover successfully answered \
          requests only.")
    Term.(
      const run $ socket_arg $ tcp_arg $ requests $ concurrency $ seed
      $ n_loops $ mix $ transcript $ json $ shutdown $ deadline_ms)

(* ----- soak: adversarial socket chaos drill for the serve plane ----- *)

(* The serve-plane counterpart of [chaos]: a fault-free sequential
   baseline answers the clean and deadline-zero request cohorts
   in-process, then a daemon hardened with deliberately small overload
   knobs serves the same cohorts concurrently while a seeded fault plan
   tears its reads and writes and adversarial personas (slowloris,
   mid-frame disconnect, oversize flood, pipelined burst) attack it.
   The drill asserts the daemon survives — every well-behaved request
   answered byte-identically to the baseline, the slowloris reaped, the
   burst shed with structured overloaded errors, and the final
   pipelined shutdown drained gracefully. *)
let soak_cmd =
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~doc:"Fault-plan and request-stream seed.")
  in
  let requests =
    Arg.(
      value & opt int 24
      & info [ "requests" ] ~docv:"N"
          ~doc:"Well-behaved requests in the clean cohort.")
  in
  let concurrency =
    Arg.(
      value & opt int 4
      & info [ "concurrency" ] ~docv:"K"
          ~doc:"Concurrent well-behaved clients (round-robin split).")
  in
  let jobs =
    Arg.(
      value & opt int 2
      & info [ "jobs"; "j" ] ~docv:"N" ~doc:"Daemon worker domains.")
  in
  let n_loops =
    Arg.(
      value & opt int 2
      & info [ "loops" ] ~doc:"Loops per benchmark (small keeps the drill \
                               fast).")
  in
  let transcript =
    Arg.(
      value & opt (some string) None
      & info [ "transcript" ] ~docv:"FILE"
          ~doc:"Write every cohort answer (tab-separated, in issue order) \
                to $(docv) — the artefact CI uploads when the drill \
                fails.")
  in
  let run seed requests concurrency jobs n_loops transcript =
    setup_logs ();
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let concurrency = max 1 concurrency in
    let clean = S.Load.requests ~mix:S.Load.Clean ~n_loops ~seed requests in
    let dz =
      (* The fast-fail-probe cohort: deadline 0 compiles to the minimum
         budget, so these answer deterministically too (deadline-exceeded
         or a cheap success), and byte-identity covers the deadline
         path. *)
      List.map (S.Load.with_deadline 0)
        (S.Load.requests ~mix:S.Load.Clean ~n_loops ~seed:(seed + 1)
           (max 4 (requests / 4)))
    in
    (* Fault-free, sequential, serverless baseline: by the dispatcher's
       determinism contract these are the exact bytes every clean and
       deadline-zero request must get back under chaos. *)
    let expected_clean, expected_dz =
      with_engine ~jobs:1 (fun ~cache:_ engine ->
          let d = S.Dispatch.create engine in
          ( List.map (fun l -> S.Dispatch.handle_line d l) clean,
            List.map (fun l -> S.Dispatch.handle_line d l) dz ))
    in
    let path =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "hcvliw-soak-%d.sock" (Unix.getpid ()))
    in
    let cleanup () = try Sys.remove path with Sys_error _ -> () in
    cleanup ();
    let ok =
      Fun.protect ~finally:cleanup (fun () ->
          let listen =
            try S.Server.listen_unix path
            with Failure msg -> or_die (Error msg)
          in
          let max_line = 4096 in
          let max_pending = 4 in
          (* Server-side faults are granularity/timing perturbations
             only — torn 1-byte reads, 1-byte writes, brief stalls —
             which cannot change response bytes.  Conn_close stays
             unarmed here: it would reset well-behaved clients and void
             the identity assertion; peer resets are the disconnect
             persona's job. *)
          let plan =
            R.Inject.plan ~seed
              [
                R.Inject.spec ~prob:0.25 ~max_fires:max_int
                  R.Inject.Torn_frame;
                R.Inject.spec ~prob:0.2 ~max_fires:max_int
                  R.Inject.Slow_write;
                R.Inject.spec ~prob:0.05 ~max_fires:64 R.Inject.Conn_stall;
              ]
          in
          R.Inject.with_plan plan (fun () ->
              let srv =
                Domain.spawn (fun () ->
                    with_engine ~jobs (fun ~cache:_ engine ->
                        let dispatch = S.Dispatch.create engine in
                        let server =
                          S.Server.create ~max_line ~max_pending
                            ~slow_timeout_s:0.5 ~idle_timeout_s:30.
                            ~max_out:(1 lsl 20) ~drain_grace_s:2. ~dispatch
                            listen
                        in
                        S.Server.run server;
                        ( S.Dispatch.served dispatch,
                          S.Dispatch.shed dispatch,
                          S.Dispatch.drained dispatch )))
              in
              let connect () =
                let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
                (try Unix.connect fd (Unix.ADDR_UNIX path)
                 with e ->
                   (try Unix.close fd with Unix.Unix_error _ -> ());
                   raise e);
                fd
              in
              let numbered = List.mapi (fun i l -> (i, l)) clean in
              let chunk w =
                List.filter (fun (i, _) -> i mod concurrency = w) numbered
              in
              let clean_task w () =
                let c = chunk w in
                if c = [] then `Answers []
                else
                  `Answers
                    (List.map2
                       (fun (i, _) (_, resp) -> (i, resp))
                       c
                       (S.Load.run_requests ~connect (List.map snd c)))
              in
              let ping i =
                Printf.sprintf "{\"id\":\"burst%03d\",\"op\":\"ping\"}" i
              in
              let is_shed r = S.Load.classify r = S.Load.Shed in
              let tasks =
                List.init concurrency clean_task
                @ [
                    (fun () -> `Dz (S.Load.run_requests ~connect dz));
                    (fun () ->
                      `Loris
                        (S.Load.run_slowloris ~connect ~duration_s:3.0
                           ~interval_s:0.01 ()));
                    (fun () ->
                      S.Load.run_disconnect ~connect
                        (S.Load.requests ~mix:S.Load.Clean ~n_loops:1
                           ~seed:(seed + 2) 2);
                      `Disc);
                    (fun () ->
                      (* Shedding needs the burst to outrun the drain
                         loop; a torn first read can defer that, so the
                         persona retries a couple of times. *)
                      let rec attempt k =
                        let got =
                          S.Load.run_burst ~connect (List.init 40 ping)
                        in
                        if List.exists is_shed got || k <= 1 then got
                        else attempt (k - 1)
                      in
                      `Burst (attempt 3));
                    (fun () ->
                      let rec attempt k =
                        let got =
                          S.Load.run_flood ~connect
                            ~line_bytes:(2 * max_line) 12
                        in
                        if got <> [] || k <= 1 then got else attempt (k - 1)
                      in
                      `Flood (attempt 3));
                  ]
              in
              let pool = E.Pool.create ~jobs:(List.length tasks) () in
              let results =
                Fun.protect
                  ~finally:(fun () -> E.Pool.shutdown pool)
                  (fun () -> E.Pool.map pool (fun f -> f ()) tasks)
              in
              (* Graceful drain: pipeline a request and the shutdown in
                 one write — the request must still be answered, and the
                 batch lands while draining.  (A line pipelined {e
                 after} the shutdown is not owed an answer: drain stops
                 reading, and bytes still in the kernel buffer are
                 dropped by contract.) *)
              let drain_resps =
                S.Load.run_burst ~connect
                  [
                    "{\"id\":\"drain-a\",\"op\":\"ping\"}";
                    "{\"id\":\"drain-bye\",\"op\":\"shutdown\"}";
                  ]
              in
              let served, shed_srv, drained = Domain.join srv in
              let fails = ref [] in
              let failf fmt =
                Printf.ksprintf (fun s -> fails := s :: !fails) fmt
              in
              let answers =
                List.sort compare
                  (List.concat_map
                     (function `Answers l -> l | _ -> [])
                     results)
              in
              List.iteri
                (fun i want ->
                  match List.assoc_opt i answers with
                  | Some (Some got) when String.equal got want -> ()
                  | Some (Some got) ->
                    failf "clean request %d diverged under chaos:\n  want %s\n  got  %s"
                      i want got
                  | Some None ->
                    failf "clean request %d lost its answer (transport error)" i
                  | None -> failf "clean request %d missing from the cohort" i)
                expected_clean;
              let dz_got =
                List.concat_map (function `Dz l -> l | _ -> []) results
              in
              if List.length dz_got <> List.length expected_dz then
                failf "deadline-zero cohort answered %d/%d requests"
                  (List.length dz_got) (List.length expected_dz);
              List.iteri
                (fun i want ->
                  match List.nth_opt dz_got i with
                  | Some (_, Some got) when String.equal got want -> ()
                  | Some (_, Some got) ->
                    failf "deadline-zero request %d diverged:\n  want %s\n  got  %s"
                      i want got
                  | Some (_, None) ->
                    failf "deadline-zero request %d lost its answer" i
                  | None -> ())
                expected_dz;
              (match
                 List.find_map
                   (function `Loris r -> Some r | _ -> None)
                   results
               with
              | Some true -> ()
              | _ ->
                failf "slowloris connection was not reaped by the slow \
                       timeout");
              let burst =
                List.concat_map (function `Burst l -> l | _ -> []) results
              in
              let burst_sheds = List.length (List.filter is_shed burst) in
              if burst_sheds = 0 then
                failf "pipelined burst provoked no overloaded shed \
                       (max_pending %d)" max_pending;
              List.iter
                (fun r ->
                  match S.Load.classify r with
                  | S.Load.Ok_answer | S.Load.Shed -> ()
                  | _ -> failf "burst answer neither ok nor shed: %s" r)
                burst;
              let flood =
                List.concat_map (function `Flood l -> l | _ -> []) results
              in
              if flood = [] then
                failf "oversize flood got no structured answers";
              List.iter
                (fun r ->
                  match S.Load.classify r with
                  | S.Load.Error_answer | S.Load.Shed -> ()
                  | S.Load.Ok_answer | S.Load.Deadline_exceeded ->
                    failf "oversize flood line was accepted: %s" r)
                flood;
              if List.length drain_resps <> 2 then
                failf "graceful drain answered %d/2 pipelined lines"
                  (List.length drain_resps)
              else
                List.iter
                  (fun r ->
                    if S.Load.classify r <> S.Load.Ok_answer then
                      failf "drain-phase answer is an error: %s" r)
                  drain_resps;
              if drained = 0 then
                failf "dispatcher recorded no drain-phase answers";
              (match transcript with
              | None -> ()
              | Some path ->
                let oc = open_out path in
                List.iter
                  (fun (i, resp) ->
                    Printf.fprintf oc "clean\t%06d\t%s\n" i
                      (Option.value resp ~default:"#transport-error"))
                  answers;
                List.iteri
                  (fun i (_, resp) ->
                    Printf.fprintf oc "dz\t%06d\t%s\n" i
                      (Option.value resp ~default:"#transport-error"))
                  dz_got;
                List.iter (fun r -> Printf.fprintf oc "burst\t%s\n" r) burst;
                List.iter (fun r -> Printf.fprintf oc "flood\t%s\n" r) flood;
                List.iter (fun r -> Printf.fprintf oc "drain\t%s\n" r)
                  drain_resps;
                close_out oc);
              Printf.eprintf "soak: injected%s\n%!"
                (String.concat ""
                   (List.map
                      (fun (p, n) ->
                        Printf.sprintf " %s=%d" (R.Inject.point_name p) n)
                      (R.Inject.fires plan)));
              Printf.eprintf
                "soak: daemon answered %d (shed %d, drained %d); burst \
                 sheds %d; flood answers %d\n%!"
                served shed_srv drained burst_sheds (List.length flood);
              match List.rev !fails with
              | [] ->
                Printf.eprintf
                  "soak: survived — clean and deadline cohorts \
                   byte-identical to the fault-free sequential run\n%!";
                true
              | fs ->
                List.iter (Printf.eprintf "soak: FAIL %s\n%!") fs;
                false))
    in
    if not ok then exit 1
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Drill the daemon's overload hardening: serve a clean cohort and \
          a deadline-zero cohort concurrently while seeded socket faults \
          (torn reads, slow writes, stalls) and adversarial personas \
          (slowloris, mid-frame disconnect, oversize flood, pipelined \
          burst) attack the reactor — then assert zero crashes, \
          byte-identity of every well-behaved answer against a \
          fault-free sequential run, structured overloaded sheds, and a \
          graceful pipelined-shutdown drain.")
    Term.(
      const run $ seed $ requests $ concurrency $ jobs $ n_loops $ transcript)

(* ----- fuzz: differential testing of the scheduler ------------------ *)

let fuzz_cmd =
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Fuzz seed.") in
  let cases =
    Arg.(value & opt int 500 & info [ "cases" ] ~doc:"Number of fuzz cases.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:"Worker domains (1 = serial; the result is identical for any \
                value).")
  in
  let log =
    Arg.(
      value & opt (some string) None
      & info [ "log" ] ~docv:"FILE"
          ~doc:"Append one JSON record per failure to $(docv) (JSONL).")
  in
  let no_shrink =
    Arg.(
      value & flag
      & info [ "no-shrink" ] ~doc:"Log failing cases without minimising them.")
  in
  let run seed cases jobs log no_shrink trace metrics =
    setup_logs ();
    let pool = E.Pool.create ~jobs () in
    let report =
      with_obs ~trace ~metrics "fuzz" (fun obs ->
          Fun.protect
            ~finally:(fun () -> E.Pool.shutdown pool)
            (fun () ->
              Hcv_check.Diff.run ~pool ~obs ~shrink:(not no_shrink) ~seed
                ~cases ()))
    in
    Format.printf "%a@." Hcv_check.Diff.pp_report report;
    (match log with
    | Some path when report.Hcv_check.Diff.failures <> [] ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      List.iter
        (fun f ->
          output_string oc
            (E.Jsonx.to_string (Hcv_check.Diff.failure_json f));
          output_char oc '\n')
        report.Hcv_check.Diff.failures;
      close_out oc;
      Printf.eprintf "wrote %d failure records to %s\n%!"
        (List.length report.Hcv_check.Diff.failures)
        path
    | _ -> ());
    List.iter
      (fun (f : Hcv_check.Diff.failure) ->
        Format.printf "@.FAIL seed %d [%s]: %s@.%s@." f.seed
          (Hcv_check.Diff.category_to_string f.category)
          f.detail f.repro)
      report.Hcv_check.Diff.failures;
    if report.Hcv_check.Diff.failures <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differentially fuzz the heterogeneous scheduler: random \
          loops/machines/configurations, checked by the independent \
          legality oracle, the cycle simulator and the energy/time \
          estimation models.")
    Term.(const run $ seed $ cases $ jobs $ log $ no_shrink $ trace_arg
          $ metrics_arg)

(* ----- simulate: run loops through the cycle simulator ------------- *)

let simulate_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let buses = Arg.(value & opt int 1 & info [ "buses" ]) in
  let trip =
    Arg.(
      value & opt (some int) None
      & info [ "trip" ] ~doc:"Iteration count (default: the loop's).")
  in
  let run file buses machine trip =
    setup_logs ();
    let machine = resolve_machine ~buses machine in
    let loops = or_die (load_loops file) in
    List.iter
      (fun loop ->
        match
          Hcv_sched.Homo.schedule ~machine
            ~cycle_time:Presets.reference_cycle_time ~loop ()
        with
        | Error msg -> Format.printf "%s: FAILED: %s@." loop.Loop.name msg
        | Ok (sched, stats) ->
          let trip = Option.value trip ~default:loop.Loop.trip in
          let r = Hcv_sim.Simulator.run ~schedule:sched ~trip () in
          Format.printf "%s (II=%d): %a@." loop.Loop.name
            stats.Hcv_sched.Homo.ii Hcv_sim.Simulator.pp_result r;
          List.iter (fun v -> Format.printf "  violation: %s@." v)
            r.Hcv_sim.Simulator.violations)
      loops
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Schedule the loops of a .loop file and replay them on the \
          cycle-level multi-clock-domain simulator.")
    Term.(const run $ file $ buses $ machine_arg $ trip)

(* ----- report: pipelined-code and register report ------------------ *)

let report_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let buses = Arg.(value & opt int 1 & info [ "buses" ]) in
  let full =
    Arg.(
      value & flag
      & info [ "full" ] ~doc:"Also print the prologue/kernel/epilogue listing.")
  in
  let run file buses machine full =
    setup_logs ();
    let machine = resolve_machine ~buses machine in
    let loops = or_die (load_loops file) in
    List.iter
      (fun loop ->
        match
          Hcv_sched.Homo.schedule ~machine
            ~cycle_time:Presets.reference_cycle_time ~loop ()
        with
        | Error msg -> Format.printf "%s: FAILED: %s@." loop.Loop.name msg
        | Ok (sched, _) ->
          let code = Hcv_sched.Codegen.emit sched in
          print_string (Hcv_sched.Codegen.render_kernel_table code);
          Format.printf "static code size: %d ops (kernel %d), SC=%d@."
            (Hcv_sched.Codegen.static_ops code)
            (Hcv_sched.Codegen.kernel_ops code)
            code.Hcv_sched.Codegen.stage_count;
          Format.printf "%a@." Hcv_sched.Regalloc.pp
            (Hcv_sched.Regalloc.analyze sched);
          Format.printf "%a@.@." Hcv_sched.Control.pp
            (Hcv_sched.Control.analyze sched);
          if full then print_string (Hcv_sched.Codegen.render code))
      loops
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Emit the software-pipelined code (kernel table, optionally the \
          full listing) plus register and control-path reports.")
    Term.(const run $ file $ buses $ machine_arg $ full)

(* ----- debug: dump pipeline internals for one benchmark ------------ *)

let debug_cmd =
  let bench = Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH") in
  let run bench machine =
    setup_logs ();
    let machine = resolve_machine ~buses:1 machine in
    let spec =
      match Specfp.find bench with
      | Some spec -> spec
      | None -> or_die (Error (Printf.sprintf "unknown benchmark %S" bench))
    in
    let loops = Specfp.loops ~seed:42 spec in
    let r = diag_ok (Pipeline.run ~machine ~name:bench ~loops ()) in
    let pr_act label (a : Activity.t) =
      Format.printf "%s: T=%.0f ins=[%s] comms=%.0f mem=%.0f@." label
        a.Activity.exec_time_ns
        (String.concat ";"
           (Array.to_list
              (Array.map (Printf.sprintf "%.0f") a.Activity.per_cluster_ins_energy)))
        a.Activity.n_comms a.Activity.n_mem
    in
    pr_act "reference " r.Pipeline.profile.Profile.activity;
    pr_act "hetero    " r.Pipeline.hetero_activity;
    Format.printf "homo choice:@.%a@.het choice:@.%a@." Select.pp_choice
      r.Pipeline.homo Select.pp_choice r.Pipeline.hetero;
    List.iter
      (fun (lr : Pipeline.loop_result) ->
        let s = lr.Pipeline.schedule in
        let dist = Hcv_sched.Schedule.per_cluster_ins_energy s in
        Format.printf "  %-16s IT=%a MIT=%a comms=%d dist=[%s]@."
          lr.Pipeline.profile.Profile.loop.Loop.name Q.pp
          lr.Pipeline.stats.Hsched.it Q.pp lr.Pipeline.stats.Hsched.mit
          (Hcv_sched.Schedule.n_comms s)
          (String.concat ";"
             (Array.to_list (Array.map (Printf.sprintf "%.1f") dist))))
      r.Pipeline.loop_results;
    let homo_ct =
      (Opconfig.point r.Pipeline.homo.Select.config (Comp.Cluster 0))
        .Opconfig.cycle_time
    in
    let homo_act = Profile.scale_cycle_time r.Pipeline.profile homo_ct in
    Format.printf "homo breakdown:   %a@." Model.pp_breakdown
      (Model.energy r.Pipeline.ctx ~config:r.Pipeline.homo.Select.config
         homo_act);
    Format.printf "hetero breakdown: %a@." Model.pp_breakdown
      (Model.energy r.Pipeline.ctx ~config:r.Pipeline.hetero.Select.config
         r.Pipeline.hetero_activity);
    Format.printf "ed2 ratio=%.3f time=%.3f energy=%.3f fallbacks=%d@."
      r.Pipeline.ed2_ratio r.Pipeline.time_ratio r.Pipeline.energy_ratio
      r.Pipeline.fallbacks
  in
  Cmd.v (Cmd.info "debug" ~doc:"Dump pipeline internals.")
    Term.(const run $ bench $ machine_arg)

let main () =
  let info =
    Cmd.info "hcvliw" ~version:"1.0.0"
      ~doc:"Heterogeneous clustered VLIW microarchitectures (CGO 2007)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ bench_cmd; table2_cmd; schedule_cmd; simulate_cmd; report_cmd; dot_cmd;
            gen_cmd; explore_cmd; fig7_cmd; frontier_cmd; families_cmd;
            chaos_cmd; serve_cmd; loadgen_cmd; soak_cmd; fuzz_cmd;
            debug_cmd ]))
