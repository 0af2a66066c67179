(* The hcvliw benchmark: four workloads through the system's real entry
   points, end-to-end metrics on an untraced pass and per-layer metrics
   on a traced one.  See README.md.

   Usage:
     main.exe [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
              [--trace-out FILE] [--out FILE] [--smoke]

   With one --workload the workload runs in this process; the last line
   of stdout is one JSON object {correct, attempted, failed, metrics}.
   Otherwise every selected workload (all four by default) runs in a
   fresh process of its own, so each reports its own peak RSS; --smoke
   runs each at a fixed small size, untraced and traced, and checks the
   metric names and units against BENCHMARK.json.  The exit code is
   non-zero when any correctness check fails. *)

module J = Hcv_explore.Jsonx

let workloads =
  [
    ("fig7-quick", Fig7.run);
    ("fuzz-battery", Fuzz.run);
    ("serve-warm", Serve.run Serve.Warm);
    ("serve-mixed", Serve.run Serve.Mixed);
  ]

(* Metric names and units; BENCHMARK.json declares the same tables. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "op/s");
    ("op_p50_ms", "ms");
    ("op_tail_ms", "ms");
    ("peak_rss_mb", "MiB");
  ]

(* A workload that does not exercise a layer reports 0 for it. *)
let per_layer =
  [
    ("profile.ms", "ms/cell");
    ("select.ms", "ms/cell");
    ("hsched.ms", "ms/cell");
    ("hsched.calls", "calls/cell");
    ("hsched.loop_p50_ms", "ms");
    ("hsched.loop_tail_ms", "ms");
    ("hsched.attempts", "attempts/call");
    ("hsched.attempt_yield", "ratio");
    ("hsched.slot_failures", "fails/call");
    ("pseudo.evals", "evals/call");
    ("pseudo.feasible_ratio", "ratio");
    ("partition.exact_evals", "evals/call");
    ("partition.memo_hit_ratio", "ratio");
    ("partition.hier_reuse_ratio", "ratio");
    ("hsched.us_per_pseudo_eval", "us");
    ("schedule.self_ms", "ms/cell");
    ("evaluate.ms", "ms/cell");
    ("pipeline.other_ms", "ms/cell");
    ("fig7.ed2_ratio_mean", "ratio");
    ("fig7.fallback_loops", "count");
    ("fuzz.gen_ms", "ms");
    ("fuzz.check_ms", "ms");
    ("fuzz.check_tail_ms", "ms");
    ("fuzz.scheduled_ratio", "ratio");
    ("proto.parse_us", "us");
    ("registry.admit_us", "us");
    ("cache.find_us", "us");
    ("codec.decode_us", "us");
    ("engine.other_us", "us");
    ("render_us", "us");
    ("dispatch.tally_us", "us");
    ("dispatch.handle_us", "us");
    ("reactor_us", "us");
    ("server.batch_width_mean", "requests");
    ("cache.hit_ratio", "ratio");
    ("serve.hit_tail_ms", "ms");
    ("serve.hit_wait_tail_ms", "ms");
    ("serve.miss_p50_ms", "ms");
    ("registry.run_ms", "ms");
    ("cache.store_ms", "ms");
    ("serve.prime_s", "s");
    ("layers.sum_ratio", "ratio");
    ("trace_overhead_ratio", "ratio");
  ]

let usage () =
  prerr_endline
    "usage: main.exe [--workload NAME]... [--seed N] [--seconds S]\n\
    \                [--trace 0|1] [--trace-out FILE] [--out FILE] [--smoke]\n\
     workloads: fig7-quick fuzz-battery serve-warm serve-mixed";
  exit 2

type opts = {
  selected : string list;
  seed : int;
  seconds : int;
  trace : bool;
  trace_out : string option;
  out : string option;
  smoke : bool;
}

let parse_args argv =
  let int_arg name ~min v =
    match int_of_string_opt v with
    | Some n when n >= min -> n
    | Some _ | None ->
      Printf.eprintf "error: %s expects an integer >= %d, got %S\n" name min v;
      usage ()
  in
  let rec go o = function
    | [] -> { o with selected = List.rev o.selected }
    | "--workload" :: w :: rest ->
      if not (List.mem_assoc w workloads) then begin
        Printf.eprintf "error: unknown workload %S\n" w;
        usage ()
      end;
      go { o with selected = w :: o.selected } rest
    | "--seed" :: v :: rest ->
      go { o with seed = int_arg "--seed" ~min:0 v } rest
    | "--seconds" :: v :: rest ->
      go { o with seconds = int_arg "--seconds" ~min:1 v } rest
    | "--trace" :: v :: rest -> (
      match v with
      | "0" -> go { o with trace = false } rest
      | "1" -> go { o with trace = true } rest
      | _ ->
        Printf.eprintf "error: --trace expects 0 or 1, got %S\n" v;
        usage ())
    | "--trace-out" :: f :: rest -> go { o with trace_out = Some f } rest
    | "--out" :: f :: rest -> go { o with out = Some f } rest
    | "--smoke" :: rest -> go { o with smoke = true } rest
    | arg :: _ ->
      Printf.eprintf "error: unexpected argument %S\n" arg;
      usage ()
  in
  go
    {
      selected = [];
      seed = 42;
      seconds = 15;
      trace = false;
      trace_out = None;
      out = None;
      smoke = false;
    }
    argv

let write_file file s =
  Out_channel.with_open_bin file (fun oc -> output_string oc s)

(* ----- one workload, in this process ---------------------------------- *)

let result_json (r : Workload.result) metrics =
  J.Obj
    [
      ("correct", J.Bool r.Workload.correct);
      ("attempted", J.Num (float_of_int r.Workload.attempted));
      ("failed", J.Num (float_of_int r.Workload.failed));
      ( "metrics",
        J.Obj
          (List.map
             (fun (name, value, unit) ->
               (name, J.Obj [ ("value", J.Num value); ("unit", J.Str unit) ]))
             metrics) );
    ]

(* Run one workload and report every metric of the pass's table, in
   table order: the workload's own, plus peak RSS on the untraced pass
   and 0 for a layer the workload does not exercise. *)
let run_one o name =
  let cfg =
    {
      Workload.seed = o.seed;
      seconds = float_of_int o.seconds;
      trace = o.trace;
      smoke = o.smoke;
    }
  in
  let r = (List.assoc name workloads) cfg in
  let measured =
    if o.trace then r.Workload.metrics
    else r.Workload.metrics @ [ ("peak_rss_mb", Stats.peak_rss_mb ()) ]
  in
  let table = if o.trace then per_layer else end_to_end in
  let problems = ref (List.rev r.Workload.problems) in
  let problem fmt =
    Printf.ksprintf (fun p -> problems := p :: !problems) fmt
  in
  List.iter
    (fun (m, _) ->
      if not (List.mem_assoc m table) then problem "undeclared metric %s" m)
    measured;
  let metrics =
    List.map
      (fun (m, unit) ->
        match List.assoc_opt m measured with
        | Some v when Float.is_finite v -> (m, v, unit)
        | Some _ ->
          problem "metric %s is not finite" m;
          (m, 0.0, unit)
        | None ->
          if not o.trace then problem "metric %s missing" m;
          (m, 0.0, unit))
      table
  in
  let r =
    { r with Workload.correct = !problems = []; problems = List.rev !problems }
  in
  List.iter
    (fun (m, v, unit) -> Printf.printf "%s %s %.6g %s\n" name m v unit)
    metrics;
  List.iter (fun n -> Printf.printf "%s note: %s\n" name n) r.Workload.notes;
  List.iter
    (fun p -> Printf.eprintf "%s: FAILED: %s\n" name p)
    r.Workload.problems;
  (match (o.trace_out, r.Workload.tree) with
  | Some path, Some tree -> Hcv_explore.Tracex.write_jsonl ~wall:true ~path tree
  | _ -> ());
  let json = J.to_string (result_json r metrics) in
  Option.iter (fun f -> write_file f (json ^ "\n")) o.out;
  print_endline json;
  if not r.Workload.correct then exit 1

(* ----- several workloads, one process each ----------------------------- *)

(* Run one workload in a fresh process of this executable; its stdout
   lines pass through, and its last line is its JSON result. *)
let run_child o ~trace name =
  let args =
    [
      Sys.executable_name; "--workload"; name; "--seed"; string_of_int o.seed;
      "--seconds"; string_of_int o.seconds; "--trace";
      (if trace then "1" else "0");
    ]
    @ if o.smoke then [ "--smoke" ] else []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin wr
      Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let lines =
    In_channel.input_all ic
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let last = List.nth_opt (List.rev lines) 0 in
  List.iter print_endline (List.filter (fun l -> Some l <> last) lines);
  match (status, Option.map J.of_string last) with
  | Unix.WEXITED (0 | 1), Some (Ok json) -> Ok json
  | _ -> Error (Printf.sprintf "%s: the workload process failed" name)

let str_member key j = Option.bind (J.member key j) J.str

(* BENCHMARK.json must declare exactly the tables above. *)
let check_declared table json_key =
  let declared =
    let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
    match J.of_string text with
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
    | Ok j ->
      Option.value ~default:[] (Option.bind (J.member json_key j) J.list)
      |> List.map (fun m ->
             ( Option.value ~default:"" (str_member "name" m),
               Option.value ~default:"" (str_member "unit" m) ))
  in
  if declared = table then []
  else [ "BENCHMARK.json " ^ json_key ^ " differs from the benchmark" ]

(* A result must carry exactly the declared metrics with their units, and
   pass every correctness check. *)
let check_result table name json =
  let units =
    match J.member "metrics" json with
    | Some (J.Obj fields) ->
      List.map
        (fun (m, v) -> (m, Option.value ~default:"" (str_member "unit" v)))
        fields
    | Some _ | None -> []
  in
  (if units = table then []
   else [ name ^ ": metric names or units differ from the declared table" ])
  @
  if
    J.member "correct" json = Some (J.Bool true)
    && J.member "failed" json = Some (J.Num 0.0)
  then []
  else [ name ^ ": correctness checks failed" ]

let run_all o =
  let names = if o.selected = [] then List.map fst workloads else o.selected in
  let passes = if o.smoke then [ false; true ] else [ o.trace ] in
  let problems =
    ref
      (if o.smoke then
         check_declared end_to_end "end_to_end"
         @ check_declared per_layer "per_layer"
       else [])
  in
  let results =
    List.concat_map
      (fun name ->
        List.filter_map
          (fun trace ->
            match run_child o ~trace name with
            | Error e ->
              problems := !problems @ [ e ];
              None
            | Ok json ->
              let table = if trace then per_layer else end_to_end in
              problems := !problems @ check_result table name json;
              Some ((if trace then name ^ "+trace" else name), json))
          passes)
      names
  in
  let sum key =
    List.fold_left
      (fun acc (_, j) ->
        acc + Option.value ~default:0 (Option.bind (J.member key j) J.int))
      0 results
  in
  let json =
    J.to_string
      (J.Obj
         [
           ("correct", J.Bool (!problems = []));
           ("attempted", J.Num (float_of_int (sum "attempted")));
           ("failed", J.Num (float_of_int (sum "failed")));
           ("workloads", J.Obj results);
         ])
  in
  Option.iter (fun f -> write_file f (json ^ "\n")) o.out;
  List.iter (fun p -> Printf.eprintf "FAILED: %s\n" p) !problems;
  print_endline json;
  if !problems <> [] then exit 1

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let o = parse_args (List.tl (Array.to_list Sys.argv)) in
  match o.selected with
  | [ name ] -> run_one o name
  | _ ->
    if o.trace_out <> None then begin
      prerr_endline "error: --trace-out needs exactly one --workload";
      usage ()
    end;
    run_all o
