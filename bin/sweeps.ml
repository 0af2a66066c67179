(* The population sweeps: bench (serial, one pipeline per benchmark)
   and the engine-backed explore, frontier and families.  Every engine
   sweep's stdout is byte-identical for any --jobs value and cache
   state: cells are reassembled in submission order. *)

open Cmdliner
open Hcv_support
open Hcv_machine
open Hcv_energy
open Hcv_core
open Hcv_workload
open Common

(* ----- bench: run the full pipeline for benchmarks ---------------- *)

let bench_cmd =
  let run names buses n_loops seed =
    setup_logs ();
    let machine = Presets.machine_4c ~buses in
    List.iter
      (fun name ->
        let loops = Specfp.loops ?n_loops ~seed (find_spec name) in
        let r = diag_ok (Pipeline.run ~machine ~name ~loops ()) in
        Format.printf "%a@." Pipeline.pp_summary r)
      names
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run the full profile/select/schedule pipeline for one (or all) \
          synthetic SPECfp2000 benchmarks and report normalised ED2.")
    Term.(const run $ benchmarks $ buses $ loops $ seed)

(* ----- explore ------------------------------------------------------ *)

(* Parallel, memoised design-space exploration over the synthetic
   SPECfp population: every (benchmark, machine variant) cell runs the
   full profile/select/schedule pipeline on the Hcv_explore engine.
   With --cache the completed cells persist to disk, so a repeated run
   — or a rerun after an interruption — only computes what is
   missing. *)
let explore_cmd =
  let compact =
    Arg.(
      value & flag
      & info [ "compact-cache" ]
          ~doc:"After the sweep, rewrite --cache's file as one \
                integrity-checked record per live entry (atomic \
                write-temp-then-rename), dropping superseded duplicates, \
                corrupt lines and any torn tail.")
  in
  let show_config =
    Arg.(
      value & flag
      & info [ "show-config" ]
          ~doc:"Also print each benchmark's selected heterogeneous \
                configuration.")
  in
  let run names buses machine n_loops seed steps jobs cache compact
      show_config trace metrics =
    setup_logs ();
    if compact && cache = None then
      or_die (Error "--compact-cache needs --cache DIR");
    let machine = machine_sel_of_spec machine in
    let cells =
      List.map
        (fun name ->
          Sweep.cell ~buses ?n_loops ~seed ?grid_steps:steps ~machine name)
        names
    in
    with_engine ?cache_dir:cache ~jobs (fun ~cache engine ->
        let outcomes =
          with_obs ~trace ~metrics "explore" (fun obs ->
              Sweep.run engine ~label:"explore" ~obs ~loops_of cells)
        in
        let t = Tablefmt.create ratio_columns in
        let ok = List.filter succeeded outcomes in
        List.iter (fun o -> Tablefmt.add_row t (ratio_row o)) ok;
        if ok <> [] then begin
          Tablefmt.add_sep t;
          Tablefmt.add_row t
            [ "mean"; Tablefmt.cell_f (mean_ed2 ok); "-"; "-"; "-" ]
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
        Option.iter
          (fun c ->
            print_cache_stats c;
            if compact then
              match E.Cache.compact c with
              | Ok n -> Printf.eprintf "cache: compacted to %d records\n%!" n
              | Error d -> cache_warn d)
          cache)
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Explore the design space over the benchmark population on a \
          parallel worker pool, with a persistent result cache that a \
          rerun resumes from.")
    Term.(
      const run $ benchmarks $ buses $ Common.machine $ loops $ seed $ steps
      $ jobs () $ cache $ compact $ show_config $ trace $ metrics)

(* ----- frontier: multi-objective Pareto selection ------------------- *)

(* Same engine-backed sweep as explore, but each cell also runs the
   optional frontier stage: the §3.3 selection sweep folded into a
   Pareto frontier over {time, energy, ED2, EDP, power}.  Stdout is the
   fig7-style regime report; --csv dumps the member vectors. *)
let frontier_cmd =
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
  let objective name =
    let name = String.trim name in
    match Frontier.objective_of_string name with
    | Some o -> o
    | None ->
      or_die
        (Error
           (Printf.sprintf
              "unknown objective %S (one of time,energy,ed2,edp,power)" name))
  in
  let parse_spec objectives caps =
    let objectives =
      match objectives with
      | None -> Frontier.all_objectives
      | Some s -> List.map objective (String.split_on_char ',' s)
    in
    let caps = List.map (fun s -> or_die (Frontier.cap_of_string s)) caps in
    Frontier.spec ~objectives ~caps ()
  in
  let run names quick objectives caps buses n_loops seed steps jobs cache csv
      schedule_corner trace metrics =
    setup_logs ();
    let spec = parse_spec objectives caps in
    let corner_obj = Option.map objective schedule_corner in
    let buses = if quick then 1 else buses in
    let n_loops = if quick then Some 6 else n_loops in
    let cell name =
      Sweep.cell ~buses ?n_loops ~seed ?grid_steps:steps ~frontier:spec name
    in
    let cells = List.map cell names in
    with_engine ?cache_dir:cache ~jobs (fun ~cache engine ->
        let outcomes =
          with_obs ~trace ~metrics "frontier" (fun obs ->
              Sweep.run engine ~label:"frontier" ~obs ~loops_of cells)
        in
        let fronts =
          List.filter_map
            (fun ((c : Sweep.cell), (o : Sweep.outcome)) ->
              if not (succeeded o) then None
              else
                let machine = Sweep.machine_of_cell c in
                let choices =
                  List.filter_map
                    (Sweep.choice_of_string ~machine)
                    o.Sweep.frontier
                in
                Some (o.Sweep.bench, Frontier_report.rebuild ~spec choices))
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
        Option.iter print_cache_stats cache;
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
                let machine = Sweep.machine_of_cell (cell bench) in
                let loops = Specfp.loops ?n_loops ~seed (find_spec bench) in
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
      const run $ benchmarks $ quick $ objectives $ caps $ buses $ loops $ seed
      $ steps $ jobs () $ cache $ csv $ schedule_corner $ trace $ metrics)

(* ----- families: sweep the named asymmetric machine families -------- *)

(* The capability-heterogeneity counterpart of explore: the same
   engine-backed sweep, fanned out over the named machine families
   (with the paper machine riding along as the symmetric baseline), so
   the normalised ratios are directly comparable across cluster
   mixes. *)
let families_cmd =
  let run names buses n_loops seed jobs cache trace metrics =
    setup_logs ();
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
    with_engine ?cache_dir:cache ~jobs (fun ~cache engine ->
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
            (("machine", Tablefmt.Left) :: ratio_columns)
        in
        List.iteri
          (fun gi (label, _) ->
            if gi > 0 then Tablefmt.add_sep t;
            let ok =
              List.filter (succeeded ~prefix:(label ^ "/")) (next_group ())
            in
            List.iter (fun o -> Tablefmt.add_row t (ratio_row ~label o)) ok;
            if ok <> [] then
              Tablefmt.add_row t
                [ label; "mean"; Tablefmt.cell_f (mean_ed2 ok); "-"; "-"; "-" ])
          machines;
        Tablefmt.print t;
        Option.iter print_cache_stats cache)
  in
  Cmd.v
    (Cmd.info "families"
       ~doc:
         "Sweep the named capability-asymmetric machine families \
          (big-little, fp-heavy, scalar-satellite) plus the paper's \
          symmetric machine over the benchmark population and report \
          normalised ED2/time/energy per (machine, benchmark) pair.")
    Term.(
      const run $ benchmarks $ buses $ loops $ seed $ jobs () $ cache $ trace
      $ metrics)
