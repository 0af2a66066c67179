(* End-to-end integration: DSL text -> heterogeneous scheduling ->
   code emission -> simulation, all consistent with each other. *)

open Hcv_ir
open Hcv_machine
open Hcv_energy
open Hcv_sched
open Hcv_core

let machine = Presets.machine_4c ~buses:1

let source =
  {|
loop saxpy trip 120 weight 0.5
  node lx ld.f
  node ly ld.f
  node m mul.f
  node s add.f
  node st st.f
  node i add.i
  edge lx m
  edge ly s
  edge m s
  edge s st
  edge i lx
  edge i ly
  edge i i dist 1
end

loop horner trip 200 weight 0.5
  node c0 ld.f
  node m mul.f
  node a add.f
  edge c0 a
  edge m a
  edge a m dist 1
end
|}

let parse () =
  match Dsl.parse source with
  | Ok loops -> loops
  | Error e -> Alcotest.failf "parse: %a" Dsl.pp_error e

let test_full_flow () =
  let loops = parse () in
  match Pipeline.run ~machine ~name:"integration" ~loops () with
  | Error d -> Alcotest.failf "pipeline: %a" Hcv_obs.Diag.pp d
  | Ok r ->
    Alcotest.(check int) "all loops scheduled" (List.length loops)
      (List.length r.Pipeline.loop_results);
    List.iter
      (fun (lr : Pipeline.loop_result) ->
        let sched = lr.Pipeline.schedule in
        let trip = lr.Pipeline.profile.Profile.loop.Loop.trip in
        (* Code emission succeeds and its kernel covers one iteration. *)
        let code = Codegen.emit sched in
        Alcotest.(check int) "kernel ops"
          (Ddg.n_instrs sched.Schedule.loop.Loop.ddg + Schedule.n_comms sched)
          (Codegen.kernel_ops code);
        (* The simulator replays it with no violations and agrees with
           the analytic time. *)
        (match Hcv_sim.Simulator.measure ~schedule:sched ~trip with
        | Error vs -> Alcotest.failf "sim: %s" (String.concat "; " vs)
        | Ok act ->
          Alcotest.(check (float 1e-6))
            "time agrees"
            (Schedule.exec_time_ns sched ~trip)
            act.Activity.exec_time_ns);
        (* Registers fit. *)
        let ra = Regalloc.analyze sched in
        Alcotest.(check bool) "registers fit" true
          (Array.for_all Fun.id ra.Regalloc.fits))
      r.Pipeline.loop_results

let test_energy_model_consistency () =
  (* Measured activity through the simulator gives the same model
     energy as the analytic activity. *)
  let loops = parse () in
  match Pipeline.run ~machine ~name:"integration" ~loops () with
  | Error d -> Alcotest.failf "pipeline: %a" Hcv_obs.Diag.pp d
  | Ok r ->
    let config = r.Pipeline.hetero.Select.config in
    List.iter
      (fun (lr : Pipeline.loop_result) ->
        let trip = lr.Pipeline.profile.Profile.loop.Loop.trip in
        let analytic =
          Profile.activity_of_schedule lr.Pipeline.schedule ~trip
        in
        match Hcv_sim.Simulator.measure ~schedule:lr.Pipeline.schedule ~trip with
        | Error vs -> Alcotest.failf "sim: %s" (String.concat "; " vs)
        | Ok measured ->
          let e1 =
            Model.total (Model.energy r.Pipeline.ctx ~config analytic)
          in
          let e2 =
            Model.total (Model.energy r.Pipeline.ctx ~config measured)
          in
          Alcotest.(check (float 1e-9)) "same energy" e1 e2)
      r.Pipeline.loop_results

let test_dsl_roundtrip_through_scheduler () =
  (* Print the loops back out, reparse, and get identical MIIs. *)
  let loops = parse () in
  match Dsl.parse (Dsl.print_all loops) with
  | Error e -> Alcotest.failf "reparse: %a" Dsl.pp_error e
  | Ok loops2 ->
    List.iter2
      (fun (a : Loop.t) (b : Loop.t) ->
        Alcotest.(check int) "same MII"
          (Mii.mii machine a.Loop.ddg)
          (Mii.mii machine b.Loop.ddg))
      loops loops2

let test_oracle_over_pipelines () =
  (* The independent legality oracle accepts every schedule the
     evaluation pipelines produce: the full flow on the unrestricted
     machine and on the Fig. 7 grid-restricted machine, the homogeneous
     reference schedules behind the profile, and the §4.1 ablation
     variants (pre-placement / scoring switched off). *)
  let loops = parse () in
  let ok_or_fail label = function
    | Ok () -> ()
    | Error vs ->
      Alcotest.failf "%s: %s" label
        (String.concat "; " (Hcv_check.Legal.to_strings vs))
  in
  List.iter
    (fun (mlabel, machine) ->
      match Pipeline.run ~machine ~name:mlabel ~loops () with
      | Error d -> Alcotest.failf "%s: pipeline: %a" mlabel Hcv_obs.Diag.pp d
      | Ok r ->
        let config = r.Pipeline.hetero.Select.config in
        List.iter
          (fun (lr : Pipeline.loop_result) ->
            let name = lr.Pipeline.profile.Profile.loop.Loop.name in
            ok_or_fail
              (Printf.sprintf "%s/%s hetero" mlabel name)
              (Hcv_check.Legal.verify lr.Pipeline.schedule);
            ok_or_fail
              (Printf.sprintf "%s/%s clocking" mlabel name)
              (Hcv_check.Legal.verify_clocking ~config
                 lr.Pipeline.schedule.Schedule.clocking);
            (* The homogeneous reference schedule behind the profile
               (its clocking bypasses the grid by design, so only the
               schedule itself is checked). *)
            ok_or_fail
              (Printf.sprintf "%s/%s reference" mlabel name)
              (Hcv_check.Legal.verify lr.Pipeline.profile.Profile.sched))
          r.Pipeline.loop_results;
        (* Ablation variants of the heterogeneous scheduler. *)
        List.iter
          (fun (preplace, score_mode, alabel) ->
            List.iter
              (fun (lp : Profile.loop_profile) ->
                match
                  Hsched.schedule ~ctx:r.Pipeline.ctx ~config
                    ~loop:lp.Profile.loop ~preplace ~score_mode ()
                with
                | Error _ -> () (* estimate fallback, as in the bench *)
                | Ok (sched, _) ->
                  ok_or_fail
                    (Printf.sprintf "%s/%s %s" mlabel
                       lp.Profile.loop.Loop.name alabel)
                    (Hcv_check.Legal.verify sched))
              r.Pipeline.profile.Profile.loops)
          [
            (false, Hsched.Ed2, "no-preplace");
            (true, Hsched.Schedulability, "sched-score");
            (false, Hsched.Schedulability, "no-preplace/sched-score");
          ])
    [
      ("unrestricted", machine);
      ("fig7-grid", Machine.with_grid machine (Presets.grid_of_steps (Some 8)));
    ]

let test_paper_byte_identity () =
  (* The capability-aware layers must leave the paper machine
     untouched: a paper machine arriving from a description file (the
     new input path) is structurally identical to the compiled-in
     preset, takes the same cache keys, and yields byte-identical sweep
     outcomes to the default-machine path. *)
  let module E = Hcv_explore in
  let m' =
    match E.Machdesc.of_string (E.Machdesc.to_string machine) with
    | Ok m -> m
    | Error e -> Alcotest.failf "paper machine does not round-trip: %s" e
  in
  Alcotest.(check bool) "round-trip is structurally identical" true
    (m' = machine);
  Alcotest.(check string) "same machine key"
    (E.Codec.machine_key machine)
    (E.Codec.machine_key m');
  let loops_of (_ : Sweep.cell) = parse () in
  let default_cell = Sweep.cell "integration" in
  let desc_cell =
    Sweep.cell ~machine:(Sweep.Desc (E.Machdesc.to_string machine))
      "integration"
  in
  Alcotest.(check string) "description path keys like the default path"
    (Sweep.cell_key default_cell)
    (Sweep.cell_key desc_cell);
  Alcotest.(check string) "byte-identical outcome"
    (Sweep.outcome_to_string (Sweep.run_cell ~loops_of default_cell))
    (Sweep.outcome_to_string (Sweep.run_cell ~loops_of desc_cell))

let suite =
  [
    Alcotest.test_case "full flow" `Quick test_full_flow;
    Alcotest.test_case "paper-machine byte identity" `Quick
      test_paper_byte_identity;
    Alcotest.test_case "oracle over fig7/ablation pipelines" `Quick
      test_oracle_over_pipelines;
    Alcotest.test_case "energy model consistency" `Quick
      test_energy_model_consistency;
    Alcotest.test_case "DSL roundtrip through the scheduler" `Quick
      test_dsl_roundtrip_through_scheduler;
  ]
