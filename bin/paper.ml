(* hcvliw paper: regenerates every table and figure of the paper's
   evaluation (Table 1, Table 2, Figures 6-9) and our ablations on the
   synthetic SPECfp populations.  Timing lives in perfbench/; this
   command only prints results.

   With no selector, everything runs, in the order below, over one
   engine and cache.  --quick shrinks the populations (figures and
   ablations) and skips the 2-bus variants of the sensitivity figures.
   Every figure/ablation sweep computes its independent cells on the
   engine's workers and memoises them in --cache; tables are assembled
   in submission order, so stdout is byte-identical whatever the worker
   count and cache state. *)

open Cmdliner
open Hcv_support
open Hcv_ir
open Hcv_machine
open Hcv_energy
open Hcv_core
open Hcv_workload
open Common

let seed = 42
let fig_loops ~quick = if quick then Some 6 else Some 10
let fig6_loops ~quick = if quick then Some 8 else None (* per-spec default *)
let sense_buses ~quick = if quick then [ 1 ] else [ 1; 2 ]

(* --quick must bound the ablation bench too, not just the figures. *)
let ablation_benches ~quick =
  if quick then [ "sixtrack"; "facerec" ]
  else [ "sixtrack"; "facerec"; "fma3d" ]

let unroll_loops ~quick = if quick then 4 else 8

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

let all_cells ?n_loops ?grid_steps ?params ~buses () =
  List.map
    (fun spec ->
      Sweep.cell ~buses ?n_loops ~seed ?grid_steps ?params spec.Specfp.name)
    Specfp.all

(* Paper Figure 6 per-benchmark readings (approximate, from the bar
   chart; 1-bus values; used only as the "paper" column). *)
let fig6_paper =
  [
    ("wupwise", 0.95); ("swim", 0.90); ("mgrid", 0.90); ("applu", 0.95);
    ("galgel", 0.85); ("facerec", 0.70); ("lucas", 0.78); ("fma3d", 0.85);
    ("sixtrack", 0.65); ("apsi", 0.85);
  ]

let fig6 ~quick engine obs =
  let buses_list = [ 1; 2 ] in
  (* One sweep for the whole figure: every (bus count, benchmark) cell
     is independent. *)
  let cells =
    List.concat_map
      (fun buses -> all_cells ?n_loops:(fig6_loops ~quick) ~buses ())
      buses_list
  in
  let outcomes = Sweep.run engine ~label:"fig6" ~obs ~loops_of cells in
  let n_specs = List.length Specfp.all in
  List.iteri
    (fun i buses ->
      Printf.printf
        "Figure 6 (%d bus%s): ED2 normalised to the optimum homogeneous\n%!"
        buses (if buses > 1 then "es" else "");
      let results =
        List.filter succeeded
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
        [ "mean"; Tablefmt.cell_f 0.85; Tablefmt.cell_f (mean_ed2 results);
          "-"; "-" ];
      Tablefmt.print t;
      print_newline ())
    buses_list

(* ------------------------------------------------------------------ *)

(* Figures 7, 8 and 9 share their shape: a (buses x variant) grid of
   whole-population sweeps, one mean ED2 ratio per grid point.  A
   variant is a column label plus an optional frequency-grid step count
   (Figure 7) and optional energy parameters (Figures 8 and 9). *)
let sense_figure ~label ~header ~footer variants ~quick engine obs =
  Printf.printf "%s\n%!" header;
  let cells =
    List.concat_map
      (fun buses ->
        List.concat_map
          (fun (_, grid_steps, params) ->
            all_cells ?n_loops:(fig_loops ~quick) ?grid_steps ?params ~buses ())
          variants)
      (sense_buses ~quick)
  in
  let outcomes = ref (Sweep.run engine ~label ~obs ~loops_of cells) in
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
            Tablefmt.cell_f (mean_ed2 (List.filter succeeded (next_group ()))))
          variants
      in
      Tablefmt.add_row t (string_of_int buses :: cells))
    (sense_buses ~quick);
  Tablefmt.print t;
  Printf.printf "%s\n\n%!" footer

let fig7 =
  sense_figure ~label:"fig7"
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

let fig8 =
  sense_figure ~label:"fig8"
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

let fig9 =
  sense_figure ~label:"fig9"
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

let abl_row =
  E.Decode.(
    obj "row"
      (let+ values = req "values" (list E.Codec.hex_float)
       and+ failure = opt "error" string in
       { values; failure }))

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
    decode = (fun s -> Result.to_option (E.Decode.of_string abl_row s));
  }

(* The ablation cells run on worker domains: a failed selection raises,
   and the engine quarantines the cell into a "!!" line. *)
let raise_diag = function
  | Ok v -> v
  | Error d -> failwith (Hcv_obs.Diag.to_string d)

(* Ablations of the two heterogeneous-specific scheduling ingredients
   (§4.1): recurrence pre-placement and ED2-guided refinement; plus the
   §5.3 unrolling mitigation for coarse frequency grids. *)
let ablation ~quick engine obs =
  Printf.printf "Ablations (design choices called out in DESIGN.md)\n%!";
  let machine = Presets.machine_4c ~buses:1 in
  let bench_names = ablation_benches ~quick in
  let n_loops = fig_loops ~quick in
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
      let homo =
        raise_diag (Select.optimum_homogeneous ~ctx ~machine profile)
      in
      let config =
        (raise_diag (Select.select_heterogeneous ~ctx ~machine profile))
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
      (Hcv_obs.Trace.span obs "sweep:ablation" (fun obs ->
           E.Engine.sweep engine ~obs
             ~codec:(abl_codec ~salt:"hcv-ablation-v1")
             run_variants
             (List.map abl_cell bench_names)))
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
        string_of_int (unroll_loops ~quick);
      ] )
  in
  let run_unroll (_, _) =
    let spec = Option.get (Specfp.find "sixtrack") in
    let loops = Specfp.loops ~n_loops:(unroll_loops ~quick) ~seed spec in
    match Profile.profile ~machine:machine4 ~loops () with
    | Error d -> { values = []; failure = Some (Hcv_obs.Diag.to_string d) }
    | Ok profile ->
      let units =
        Units.of_reference ~params:Params.default ~n_clusters:4
          profile.Profile.activity
      in
      let ctx = Model.ctx ~params:Params.default ~units () in
      let config =
        (raise_diag
           (Select.select_heterogeneous ~ctx ~machine:machine4 profile))
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
  match
    List.map abl_row_of
      (Hcv_obs.Trace.span obs "sweep:ablation-unroll" (fun obs ->
           E.Engine.sweep engine ~obs
             ~codec:(abl_codec ~salt:"hcv-ablation-unroll-v1")
             run_unroll [ unroll_cell ]))
  with
  | [ { failure = Some msg; _ } ] ->
    Printf.printf "  !! unroll ablation: %s\n%!" msg
  | [ { values = [ b1; t1; b2; t2 ]; _ } ] ->
    Printf.printf
      "unrolling under a 4-frequency grid (sixtrack): plain %d sync bumps, \
       %.0f ns; unrolled x2 %d sync bumps, %.0f ns (%.1f%% time change)\n\n%!"
      (int_of_float b1) t1 (int_of_float b2) t2
      (100.0 *. ((t2 /. t1) -. 1.0))
  | _ -> Printf.printf "  !! unroll ablation: malformed row\n%!"

(* ------------------------------------------------------------------ *)

(* Every experiment, in the order they print. *)
let experiments =
  [
    ("table1", fun ~quick:_ _ _ -> table1 ());
    ("table2", fun ~quick:_ _ _ -> table2 ());
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("ablation", ablation);
  ]

let cmd =
  let selected =
    Arg.(
      value
      & pos_all (enum (List.map (fun (name, _) -> (name, name)) experiments)) []
      & info [] ~docv:"EXPERIMENT"
          ~doc:"Experiments to run (default: all of them, in this order): \
                table1, table2, fig6, fig7, fig8, fig9, ablation.")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"Smaller populations for the figures and ablations, and no \
                2-bus variants of Figures 7-9 (the golden-pinned \
                configuration).")
  in
  let run selected quick jobs cache_dir trace metrics =
    setup_logs ();
    let names =
      List.filter
        (fun name -> selected = [] || List.mem name selected)
        (List.map fst experiments)
    in
    with_engine ?cache_dir ~jobs (fun ~cache engine ->
        ignore
          (with_obs_each ~trace ~metrics names (fun name obs ->
               (List.assoc name experiments) ~quick engine obs));
        Option.iter print_cache_stats cache)
  in
  Cmd.v
    (Cmd.info "paper"
       ~doc:
         "Reproduce the paper's evaluation: Table 1, Table 2, Figures 6-9 \
          and our ablations, each sweep on the parallel, memoised engine.")
    Term.(const run $ selected $ quick $ jobs () $ cache $ trace $ metrics)
