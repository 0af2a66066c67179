(* Command-line driver; see `hcvliw --help`.  Each surface lives in its
   own module over the shared terms of Common. *)

let () =
  let info =
    Cmdliner.Cmd.info "hcvliw" ~version:"1.0.0"
      ~doc:"Heterogeneous clustered VLIW microarchitectures (CGO 2007)."
  in
  exit
    (Cmdliner.Cmd.eval
       (Cmdliner.Cmd.group info
          [ Sweeps.bench_cmd; Paper.cmd; Loop_tools.schedule_cmd;
            Loop_tools.simulate_cmd; Loop_tools.report_cmd; Loop_tools.dot_cmd;
            Loop_tools.gen_cmd; Sweeps.explore_cmd; Sweeps.frontier_cmd;
            Sweeps.families_cmd; Drills.chaos_cmd; Serve.serve_cmd;
            Serve.loadgen_cmd; Drills.soak_cmd; Drills.fuzz_cmd;
            Loop_tools.debug_cmd ]))
