(* The drills: chaos (fault injection under the sweep engine), soak
   (socket faults and adversarial clients against a live daemon) and
   fuzz (differential testing of the scheduler).  Each exits non-zero
   when its oracle finds a divergence. *)

open Cmdliner
open Hcv_support
open Hcv_core
open Hcv_workload
open Common
module R = Hcv_resilience
module S = Hcv_serve

(* ----- chaos: fault-injection drill for the exploration stack ------- *)

(* Three sweeps over the same cells: a fault-free baseline, a run under
   an armed fault plan (task raises, torn cache writes, slowed
   workers), and a recovery run warm-started from the faulted run's
   cache.  The engine's supervision and the cache's recovery make all
   three reports byte-identical; this command asserts exactly that, so
   CI can drill the resilience machinery end to end. *)
let chaos_cmd =
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
    (* One rendered report per sweep; byte-compared below. *)
    let render tag ~cache_dir obs =
      with_engine ~cache_dir ~jobs
        (fun ~cache:_ engine ->
          let outcomes = Sweep.run engine ~label:tag ~obs ~loops_of cells in
          let t =
            Tablefmt.create (ratio_columns @ [ ("error", Tablefmt.Left) ])
          in
          List.iter
            (fun (o : Sweep.outcome) ->
              Tablefmt.add_row t
                (ratio_row o @ [ Option.value o.Sweep.error ~default:"-" ]))
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
    Term.(
      const run $ seed $ jobs ~default:2 () $ fixed_loops 4 $ log $ trace
      $ metrics)

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
      const run $ seed $ requests $ concurrency $ jobs ~default:2 ()
      $ fixed_loops 2 $ transcript)

(* ----- fuzz: differential testing of the scheduler ------------------ *)

let fuzz_cmd =
  let cases =
    Arg.(value & opt int 500 & info [ "cases" ] ~doc:"Number of fuzz cases.")
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
    Term.(
      const run $ seed $ cases $ jobs () $ log $ no_shrink $ trace $ metrics)
