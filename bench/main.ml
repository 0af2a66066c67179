(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (Table 1, Table 2, Figures 6-9) and our ablations on the
   synthetic SPECfp populations.  Timing lives in perfbench/ (see
   perfbench/README.md); this program only prints results.

   Usage:
     main.exe [table1] [table2] [fig6] [fig7] [fig8] [fig9] [ablation]
              [--quick] [--jobs N] [--cache DIR] [--resume]
              [--telemetry-csv FILE]
   With no selector, everything runs.  --quick shrinks the populations
   (figures *and* ablations) and skips the 2-bus variants of the
   sensitivity figures.

   Every figure/ablation sweep runs through the Hcv_explore engine:
   --jobs N computes the independent (configuration, benchmark) cells
   on N worker domains, --cache DIR memoises completed cells on disk so
   repeated runs and --resume after an interruption skip them, and the
   per-stage telemetry (cells, cache hits, wall clock) goes to stderr
   (and to --telemetry-csv as CSV).  Tables are assembled from the
   results in submission order, so stdout is byte-identical whatever
   the worker count and cache state. *)

open Hcv_support
open Hcv_ir
open Hcv_machine
open Hcv_energy
open Hcv_core
open Hcv_workload
module E = Hcv_explore

let quick = ref false
let seed = 42

(* Unwrap a Diag-carrying result in a context where failure is fatal. *)
let diag_ok = function
  | Ok v -> v
  | Error d -> failwith (Hcv_obs.Diag.to_string d)

let fig_loops () = if !quick then Some 6 else Some 10
let fig6_loops () = if !quick then Some 8 else None (* per-spec default *)
let sense_buses () = if !quick then [ 1 ] else [ 1; 2 ]

(* --quick must bound the ablation bench too, not just the figures. *)
let ablation_benches () =
  if !quick then [ "sixtrack"; "facerec" ]
  else [ "sixtrack"; "facerec"; "fma3d" ]

let unroll_loops () = if !quick then 4 else 8

(* ------------------------------------------------------------------ *)

let table1 () =
  let t =
    Tablefmt.create
      ~title:
        "Table 1: instruction latencies and energy relative to an integer add"
      [
        ("class", Tablefmt.Left);
        ("INT lat", Tablefmt.Right);
        ("INT E", Tablefmt.Right);
        ("FP lat", Tablefmt.Right);
        ("FP E", Tablefmt.Right);
      ]
  in
  List.iter
    (fun (label, clazz) ->
      let lat d = Opcode.latency (Opcode.make clazz d) in
      let en d = Opcode.energy (Opcode.make clazz d) in
      Tablefmt.add_row t
        [
          label;
          string_of_int (lat Opcode.Int);
          Printf.sprintf "%.1f" (en Opcode.Int);
          string_of_int (lat Opcode.Fp);
          Printf.sprintf "%.1f" (en Opcode.Fp);
        ])
    [
      ("Memory", Opcode.Memory);
      ("Arithmetic", Opcode.Arith);
      ("Multiply", Opcode.Mult);
      ("Division/Modulo/sqrt", Opcode.Div);
    ];
  Tablefmt.print t;
  print_newline ()

(* ------------------------------------------------------------------ *)

let table2 () =
  let machine = Presets.machine_4c ~buses:1 in
  let t =
    Tablefmt.create
      ~title:
        "Table 2: share of execution time per constraint class (paper -> ours)"
      [
        ("benchmark", Tablefmt.Left);
        ("res paper", Tablefmt.Right);
        ("res ours", Tablefmt.Right);
        ("border paper", Tablefmt.Right);
        ("border ours", Tablefmt.Right);
        ("rec paper", Tablefmt.Right);
        ("rec ours", Tablefmt.Right);
      ]
  in
  List.iter
    (fun spec ->
      let loops = Specfp.loops ~seed spec in
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
  Tablefmt.print t;
  print_newline ()

(* ------------------------------------------------------------------ *)

let loops_of (c : Sweep.cell) =
  match Specfp.find c.Sweep.bench with
  | Some spec -> Specfp.loops ?n_loops:c.Sweep.n_loops ~seed:c.Sweep.seed spec
  | None -> failwith (Printf.sprintf "unknown benchmark %S" c.Sweep.bench)

let all_cells ?n_loops ?grid_steps ?params ~buses () =
  List.map
    (fun spec ->
      Sweep.cell ~buses ?n_loops ~seed ?grid_steps ?params spec.Specfp.name)
    Specfp.all

(* Report failed cells exactly where the serial run reported them, then
   keep only the successful ones (the serial code dropped failures from
   the means as well). *)
let report_failures outcomes =
  List.filter
    (fun (o : Sweep.outcome) ->
      match o.Sweep.error with
      | None -> true
      | Some msg ->
        Printf.printf "  !! %s failed: %s\n%!" o.Sweep.bench msg;
        false)
    outcomes

let mean_ratio outcomes =
  Listx.mean (List.map (fun (o : Sweep.outcome) -> o.Sweep.ed2_ratio) outcomes)

(* Paper Figure 6 per-benchmark readings (approximate, from the bar
   chart; 1-bus values; used only as the "paper" column). *)
let fig6_paper =
  [
    ("wupwise", 0.95); ("swim", 0.90); ("mgrid", 0.90); ("applu", 0.95);
    ("galgel", 0.85); ("facerec", 0.70); ("lucas", 0.78); ("fma3d", 0.85);
    ("sixtrack", 0.65); ("apsi", 0.85);
  ]

let fig6 engine =
  let buses_list = [ 1; 2 ] in
  (* One sweep for the whole figure: every (bus count, benchmark) cell
     is independent. *)
  let cells =
    List.concat_map
      (fun buses -> all_cells ?n_loops:(fig6_loops ()) ~buses ())
      buses_list
  in
  let outcomes = Sweep.run engine ~label:"fig6" ~loops_of cells in
  let n_specs = List.length Specfp.all in
  List.iteri
    (fun i buses ->
      Printf.printf
        "Figure 6 (%d bus%s): ED2 normalised to the optimum homogeneous\n%!"
        buses (if buses > 1 then "es" else "");
      let results =
        report_failures
          (Listx.take n_specs (Listx.drop (i * n_specs) outcomes))
      in
      let t =
        Tablefmt.create
          [
            ("benchmark", Tablefmt.Left);
            ("ED2 paper", Tablefmt.Right);
            ("ED2 ours", Tablefmt.Right);
            ("time ratio", Tablefmt.Right);
            ("energy ratio", Tablefmt.Right);
          ]
      in
      List.iter
        (fun (o : Sweep.outcome) ->
          Tablefmt.add_row t
            [
              o.Sweep.bench;
              (match List.assoc_opt o.Sweep.bench fig6_paper with
              | Some v -> Tablefmt.cell_f v
              | None -> "-");
              Tablefmt.cell_f o.Sweep.ed2_ratio;
              Tablefmt.cell_f o.Sweep.time_ratio;
              Tablefmt.cell_f o.Sweep.energy_ratio;
            ])
        results;
      Tablefmt.add_sep t;
      Tablefmt.add_row t
        [ "mean"; Tablefmt.cell_f 0.85; Tablefmt.cell_f (mean_ratio results);
          "-"; "-" ];
      Tablefmt.print t;
      print_newline ())
    buses_list

(* ------------------------------------------------------------------ *)

(* Figures 7, 8 and 9 share their shape: a (buses x variant) grid of
   whole-population sweeps, one mean ED2 ratio per grid point.  A
   variant is a column label plus an optional frequency-grid step count
   (Figure 7) and optional energy parameters (Figures 8 and 9). *)
let sense_figure engine ~label ~header ~footer variants =
  Printf.printf "%s\n%!" header;
  let cells =
    List.concat_map
      (fun buses ->
        List.concat_map
          (fun (_, grid_steps, params) ->
            all_cells ?n_loops:(fig_loops ()) ?grid_steps ?params ~buses ())
          variants)
      (sense_buses ())
  in
  let outcomes = ref (Sweep.run engine ~label ~loops_of cells) in
  let n_specs = List.length Specfp.all in
  let next_group () =
    let g = Listx.take n_specs !outcomes in
    outcomes := Listx.drop n_specs !outcomes;
    g
  in
  let t =
    Tablefmt.create
      (("buses", Tablefmt.Right)
      :: List.map (fun (label, _, _) -> (label, Tablefmt.Right)) variants)
  in
  List.iter
    (fun buses ->
      let cells =
        List.map
          (fun _ ->
            let ok = report_failures (next_group ()) in
            Tablefmt.cell_f (mean_ratio ok))
          variants
      in
      Tablefmt.add_row t (string_of_int buses :: cells))
    (sense_buses ());
  Tablefmt.print t;
  Printf.printf "%s\n\n%!" footer

let fig7 engine =
  sense_figure engine ~label:"fig7"
    ~header:"Figure 7: mean ED2 ratio vs number of supported frequencies"
    ~footer:
      "(paper: 16 freqs within 0.1% of any; 8 freqs < 1% worse; 4 freqs ~2% \
       worse)"
    [
      ("any freq", None, None);
      ("16 freqs", Some 16, None);
      ("8 freqs", Some 8, None);
      ("4 freqs", Some 4, None);
    ]

let fig8 engine =
  sense_figure engine ~label:"fig8"
    ~header:"Figure 8: mean ED2 ratio varying the ICN/cache energy shares"
    ~footer:"(paper: results vary only slightly across shares)"
    (List.map
       (fun (label, frac_icn, frac_cache) ->
         (label, None, Some (Params.make ~frac_icn ~frac_cache ())))
       [
         ("0.10/0.25", 0.10, 0.25);
         ("0.10/0.33", 0.10, 1.0 /. 3.0);
         ("0.15/0.30", 0.15, 0.30);
         ("0.20/0.25", 0.20, 0.25);
         ("0.20/0.30", 0.20, 0.30);
       ])

let fig9 engine =
  sense_figure engine ~label:"fig9"
    ~header:
      "Figure 9: mean ED2 ratio varying the leakage shares (cluster/ICN/cache)"
    ~footer:"(paper: changing leakage shares has little impact)"
    (List.map
       (fun (label, leak_cluster, leak_icn, leak_cache) ->
         (label, None, Some (Params.make ~leak_cluster ~leak_icn ~leak_cache ())))
       [
         ("0.25/0.05/0.60", 0.25, 0.05, 0.60);
         ("0.33/0.10/0.66", 1.0 /. 3.0, 0.10, 2.0 /. 3.0);
         ("0.40/0.15/0.70", 0.40, 0.15, 0.70);
         ("0.20/0.10/0.75", 0.20, 0.10, 0.75);
       ])

(* ------------------------------------------------------------------ *)

(* Ablation sweep cells: a few numbers per cell, serialized as a JSON
   row so a failure message survives the cache round-trip. *)
type abl_row = { values : float list; failure : string option }

let abl_codec ~salt =
  {
    E.Engine.cell_key =
      (fun (name, extras) -> E.Codec.digest (salt :: name :: extras));
    encode =
      (fun r ->
        let fields =
          [
            ( "values",
              E.Jsonx.List
                (List.map
                   (fun f -> E.Jsonx.Str (E.Codec.float_to_string f))
                   r.values) );
          ]
          @ match r.failure with
            | None -> []
            | Some m -> [ ("error", E.Jsonx.Str m) ]
        in
        E.Jsonx.to_string (E.Jsonx.Obj fields));
    decode =
      (fun s ->
        match E.Jsonx.of_string s with
        | Error _ -> None
        | Ok j ->
          let failure = Option.bind (E.Jsonx.member "error" j) E.Jsonx.str in
          Option.bind (E.Jsonx.member "values" j) E.Jsonx.list
          |> Option.map (fun xs ->
                 List.filter_map
                   (fun v ->
                     Option.bind (E.Jsonx.str v) E.Codec.float_of_string)
                   xs)
          |> Option.map (fun values -> { values; failure }));
  }

(* Ablations of the two heterogeneous-specific scheduling ingredients
   (§4.1): recurrence pre-placement and ED2-guided refinement; plus the
   §5.3 unrolling mitigation for coarse frequency grids. *)
let ablation engine =
  Printf.printf "Ablations (design choices called out in DESIGN.md)\n%!";
  let machine = Presets.machine_4c ~buses:1 in
  let bench_names = ablation_benches () in
  let n_loops = fig_loops () in
  let abl_cell name =
    ( name,
      [
        E.Codec.machine_key machine;
        E.Codec.params_key Params.default;
        string_of_int seed;
        (match n_loops with None -> "-" | Some n -> string_of_int n);
      ] )
  in
  let run_variants (name, _) =
    let spec = Option.get (Specfp.find name) in
    let loops = Specfp.loops ?n_loops ~seed spec in
    match Profile.profile ~machine ~loops () with
    | Error d -> { values = []; failure = Some (Hcv_obs.Diag.to_string d) }
    | Ok profile ->
      let units =
        Units.of_reference ~params:Params.default ~n_clusters:4
          profile.Profile.activity
      in
      let ctx = Model.ctx ~params:Params.default ~units () in
      let homo = diag_ok (Select.optimum_homogeneous ~ctx ~machine profile) in
      let config =
        (diag_ok (Select.select_heterogeneous ~ctx ~machine profile))
          .Select.config
      in
      let measure ?preplace ?score_mode () =
        let _, ed2, _ =
          Pipeline.measure_config ?preplace ?score_mode ~ctx ~machine ~profile
            ~config ()
        in
        ed2 /. homo.Select.predicted_ed2
      in
      {
        values =
          [
            measure ();
            measure ~preplace:false ();
            measure ~score_mode:Hsched.Schedulability ();
          ];
        failure = None;
      }
  in
  (* A quarantined cell renders like any other ablation failure. *)
  let abl_row_of = function
    | Ok row -> row
    | Error d -> { values = []; failure = Some (Hcv_obs.Diag.to_string d) }
  in
  let rows =
    List.map abl_row_of
      (E.Engine.sweep engine ~label:"ablation"
         ~codec:(abl_codec ~salt:"hcv-ablation-v1")
         run_variants
         (List.map abl_cell bench_names))
  in
  let t =
    Tablefmt.create
      ~title:"measured ED2 vs optimum homogeneous, per scheduler variant"
      [
        ("benchmark", Tablefmt.Left);
        ("full", Tablefmt.Right);
        ("no pre-placement", Tablefmt.Right);
        ("schedulability score", Tablefmt.Right);
      ]
  in
  List.iter2
    (fun name row ->
      match row with
      | { failure = Some msg; _ } -> Printf.printf "  !! %s: %s\n%!" name msg
      | { values = [ full; no_pre; score ]; _ } ->
        Tablefmt.add_row t
          [
            name; Tablefmt.cell_f full; Tablefmt.cell_f no_pre;
            Tablefmt.cell_f score;
          ]
      | _ -> Printf.printf "  !! %s: malformed ablation row\n%!" name)
    bench_names rows;
  Tablefmt.print t;
  (* Unrolling vs coarse frequency grids: mean loop-level ED2 with a
     4-frequency grid, scheduling the plain vs the 2x-unrolled loop. *)
  let machine4 = Machine.with_grid machine (Presets.grid_of_steps (Some 4)) in
  let unroll_cell =
    ( "sixtrack-unroll",
      [
        E.Codec.machine_key machine4;
        string_of_int seed;
        string_of_int (unroll_loops ());
      ] )
  in
  let run_unroll (_, _) =
    let spec = Option.get (Specfp.find "sixtrack") in
    let loops = Specfp.loops ~n_loops:(unroll_loops ()) ~seed spec in
    match Profile.profile ~machine:machine4 ~loops () with
    | Error d -> { values = []; failure = Some (Hcv_obs.Diag.to_string d) }
    | Ok profile ->
      let units =
        Units.of_reference ~params:Params.default ~n_clusters:4
          profile.Profile.activity
      in
      let ctx = Model.ctx ~params:Params.default ~units () in
      let config =
        (diag_ok (Select.select_heterogeneous ~ctx ~machine:machine4 profile))
          .Select.config
      in
      let sync_and_time unroll =
        List.fold_left
          (fun (bumps, time) (lp : Profile.loop_profile) ->
            let loop = Hcv_sched.Unroll.loop ~factor:unroll lp.Profile.loop in
            match Hsched.schedule ~ctx ~config ~loop () with
            | Ok (sched, stats) ->
              ( bumps + stats.Hsched.sync_bumps,
                time
                +. lp.Profile.reps
                   *. Hcv_sched.Schedule.exec_time_ns sched ~trip:loop.Loop.trip
              )
            | Error _ -> (bumps, time))
          (0, 0.0) profile.Profile.loops
      in
      let b1, t1 = sync_and_time 1 in
      let b2, t2 = sync_and_time 2 in
      { values = [ float_of_int b1; t1; float_of_int b2; t2 ]; failure = None }
  in
  (match
     List.map abl_row_of
       (E.Engine.sweep engine ~label:"ablation-unroll"
          ~codec:(abl_codec ~salt:"hcv-ablation-unroll-v1")
          run_unroll [ unroll_cell ])
   with
  | [ { failure = Some msg; _ } ] ->
    Printf.printf "  !! unroll ablation: %s\n%!" msg
  | [ { values = [ b1; t1; b2; t2 ]; _ } ] ->
    Printf.printf
      "unrolling under a 4-frequency grid (sixtrack): plain %d sync bumps, \
       %.0f ns; unrolled x2 %d sync bumps, %.0f ns (%.1f%% time change)\n\n%!"
      (int_of_float b1) t1 (int_of_float b2) t2
      (100.0 *. ((t2 /. t1) -. 1.0))
  | _ -> Printf.printf "  !! unroll ablation: malformed row\n%!");
  ()

(* ------------------------------------------------------------------ *)

(* Every experiment, in the order they print. *)
let experiments =
  [
    ("table1", fun _ -> table1 ());
    ("table2", fun _ -> table2 ());
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("ablation", ablation);
  ]

let usage () =
  prerr_endline
    "usage: main.exe [table1] [table2] [fig6] [fig7] [fig8] [fig9] [ablation]\n\
    \                [--quick] [--jobs N] [--cache DIR] [--resume]\n\
    \                [--telemetry-csv FILE]";
  exit 2

(* Cache recovery diagnostics (an unusable directory, quarantined
   corrupt lines) go to stderr as the hcvliw CLI prints them; stdout
   stays the deterministic tables. *)
let cache_warn d = Printf.eprintf "warning: %s\n%!" (Hcv_obs.Diag.to_string d)

let () =
  let jobs = ref 1 in
  let cache_dir = ref None in
  let resume = ref false in
  let csv = ref None in
  let rec parse selected = function
    | [] -> List.rev selected
    | "--quick" :: rest ->
      quick := true;
      parse selected rest
    | "--jobs" :: v :: rest ->
      (match int_of_string_opt v with
      | Some n when n >= 1 -> jobs := n
      | Some _ | None ->
        Printf.eprintf "error: --jobs expects a positive integer, got %S\n" v;
        usage ());
      parse selected rest
    | "--cache" :: dir :: rest ->
      cache_dir := Some dir;
      parse selected rest
    | "--resume" :: rest ->
      resume := true;
      parse selected rest
    | "--telemetry-csv" :: file :: rest ->
      csv := Some file;
      parse selected rest
    | ("--jobs" | "--cache" | "--telemetry-csv") :: [] -> usage ()
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' ->
      Printf.eprintf "error: unknown option %s\n" arg;
      usage ()
    | name :: rest when List.mem_assoc name experiments ->
      parse (name :: selected) rest
    | name :: _ ->
      Printf.eprintf "error: unknown experiment %s\n" name;
      usage ()
  in
  let selected = parse [] (List.tl (Array.to_list Sys.argv)) in
  if !resume && !cache_dir = None then begin
    prerr_endline "error: --resume needs --cache DIR";
    usage ()
  end;
  let cache = Option.map (E.Cache.open_dir ~warn:cache_warn) !cache_dir in
  (match (cache, !resume) with
  | Some c, true ->
    Printf.eprintf "resuming: %d completed cells on disk\n%!"
      (E.Cache.stats c).E.Cache.entries
  | _, _ -> ());
  let progress = E.Progress.create ~verbose:true ?csv:!csv () in
  let engine = E.Engine.create ~jobs:!jobs ?cache ~progress () in
  Fun.protect
    ~finally:(fun () ->
      (match cache with
      | Some c ->
        let s = E.Cache.stats c in
        Printf.eprintf "cache: %d hits, %d misses, %d entries\n%!"
          s.E.Cache.hits s.E.Cache.misses s.E.Cache.entries
      | None -> ());
      E.Engine.shutdown engine)
    (fun () ->
      List.iter
        (fun (name, run) ->
          if selected = [] || List.mem name selected then run engine)
        experiments)
