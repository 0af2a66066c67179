(* Tools over single loops and single benchmarks: schedule, simulate,
   report and dot read a .loop file, gen writes one, and debug dumps one
   benchmark's pipeline internals. *)

open Cmdliner
open Hcv_support
open Hcv_ir
open Hcv_machine
open Hcv_energy
open Hcv_core
open Hcv_workload
open Common

let load_loops path =
  match Dsl.parse_file path with
  | Ok loops -> Ok loops
  | Error e -> Error (Format.asprintf "%s: %a" path Dsl.pp_error e)

(* ----- schedule: schedule loops from a .loop file ------------------ *)

let schedule_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
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
    Term.(const run $ file $ buses $ machine $ hetero)

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
  let run bench seed n_loops =
    print_string (Dsl.print_all (Specfp.loops ?n_loops ~seed (find_spec bench)))
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:"Generate a synthetic benchmark population as a .loop file.")
    Term.(const run $ bench $ seed $ loops)
(* ----- simulate: run loops through the cycle simulator ------------- *)

let simulate_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
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
    Term.(const run $ file $ buses $ machine $ trip)

(* ----- report: pipelined-code and register report ------------------ *)

let report_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
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
    Term.(const run $ file $ buses $ machine $ full)

(* ----- debug: dump pipeline internals for one benchmark ------------ *)

let debug_cmd =
  let bench = Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH") in
  let run bench machine =
    setup_logs ();
    let machine = resolve_machine ~buses:1 machine in
    let loops = Specfp.loops ~seed:42 (find_spec bench) in
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
    Term.(const run $ bench $ machine)
