(* fig7-quick: the paper's headline flow (profile -> select -> hsched ->
   evaluate) over the 40 cells of [fig7 --quick]: ten synthetic SPECfp
   benchmarks x frequency grids {any, 16, 8, 4}, one bus, six loops per
   benchmark.  Scheduling (hsched) is about nine tenths of a cell, so any
   scheduler optimisation has to show up here.

   The loop populations are the ones [fig7 --quick] uses (population
   seed 42), which test/golden/fig7_quick.txt pins.  Cells come in
   rounds: round r holds every benchmark once, benchmark i at grid
   (i + r) mod 4, so each round costs about the same and four rounds
   cover all 40 cells.  A run measures the first rounds of that sequence
   in a seeded order, as many whole rounds as fit in [seconds] at about
   ten seconds a round (at least one).  Which cells a run covers does
   not depend on [--seed]: a cell costs 0.1-2 s depending on its
   benchmark and grid, and with ten cells per run a seed-chosen mix
   would make the run's numbers depend on the seed rather than on the
   code.  Whole rounds also keep the median cell steady: with a partial
   round it sat between two cells 40% apart. *)

open Hcv_support
open Hcv_core
open Hcv_workload
open Workload
module Trace = Hcv_obs.Trace

let n_loops = 6
let population_seed = 42
let grids = [| None; Some 16; Some 8; Some 4 |]
let grid_label = function None -> "any" | Some s -> string_of_int s
let rounds_per_second = 0.1

(* ED² ratio (heterogeneous / optimum homogeneous) of every cell, per
   grid any/16/8/4, as this population scheduled when the benchmark was
   written; the per-grid means render test/golden/fig7_quick.txt.  A cell
   further than [tolerance] from its entry is a wrong answer — loose
   enough for a scheduler change that moves a cell slightly, tight
   enough to catch a broken pipeline. *)
let reference =
  [
    ("wupwise", [| 0.9186; 0.9186; 0.9186; 0.9186 |]);
    ("swim", [| 0.9070; 0.8826; 0.8826; 0.8826 |]);
    ("mgrid", [| 0.9228; 0.9228; 0.9228; 0.9228 |]);
    ("applu", [| 0.9399; 0.9399; 0.9399; 0.9399 |]);
    ("galgel", [| 0.9711; 0.9711; 0.9711; 0.9711 |]);
    ("facerec", [| 0.8469; 0.8814; 0.8924; 0.8924 |]);
    ("lucas", [| 0.7931; 0.8848; 0.8848; 0.8848 |]);
    ("fma3d", [| 0.7987; 0.7985; 0.7985; 0.7985 |]);
    ("sixtrack", [| 0.7855; 0.8232; 0.8232; 0.8232 |]);
    ("apsi", [| 0.8635; 0.8562; 0.8562; 0.8562 |]);
  ]

let tolerance = 0.02
let golden = "test/golden/fig7_quick.txt"

let populations () =
  List.map
    (fun spec ->
      (spec.Specfp.name, Specfp.loops ~n_loops ~seed:population_seed spec))
    Specfp.all

(* The run's cells in a seeded order, each with its grid index. *)
let cells cfg =
  let n_specs = List.length Specfp.all in
  let cell k =
    let i = k mod n_specs in
    let gi = (i + (k / n_specs)) mod Array.length grids in
    ( Sweep.cell ~buses:1 ~n_loops ~seed:population_seed
        ?grid_steps:grids.(gi) (List.nth Specfp.all i).Specfp.name,
      gi )
  in
  (* A smoke run measures one cheap cell: swim, the second benchmark. *)
  if cfg.smoke then [ cell 1 ]
  else
    let rounds = max 1 (int_of_float (cfg.seconds *. rounds_per_second)) in
    Rng.shuffle (Rng.create cfg.seed) (List.init (rounds * n_specs) cell)

(* Run [op] on every cell of the run; returns the wall time in seconds. *)
let over_cells cfg op =
  snd (Stats.timed (fun () -> List.iter (fun (c, gi) -> op c gi) (cells cfg)))

let check_ratio problems (c : Sweep.cell) gi ed2 =
  let expected = (List.assoc c.Sweep.bench reference).(gi) in
  if Float.is_finite ed2 && Float.abs (ed2 -. expected) <= tolerance then true
  else begin
    note_problem problems
      (Printf.sprintf "%s grid %s: ED2 ratio %.4f, expected %.4f +/- %.2f"
         c.Sweep.bench (grid_label grids.(gi)) ed2 expected tolerance);
    false
  end

(* A run that covered all 40 cells (four rounds, [--seconds 40]) renders
   the Figure 7 table exactly as [bench/main.exe fig7 --quick] does; it
   must equal the golden. *)
let check_golden problems outcomes =
  if
    Hashtbl.length outcomes < Array.length grids * List.length Specfp.all
    || not (Sys.file_exists golden)
  then true
  else begin
    let t =
      Tablefmt.create
        [
          ("buses", Tablefmt.Right); ("any freq", Tablefmt.Right);
          ("16 freqs", Tablefmt.Right); ("8 freqs", Tablefmt.Right);
          ("4 freqs", Tablefmt.Right);
        ]
    in
    Tablefmt.add_row t
      ("1"
      :: List.init (Array.length grids) (fun gi ->
             Tablefmt.cell_f
               (Listx.mean
                  (List.map
                     (fun spec -> Hashtbl.find outcomes (spec.Specfp.name, gi))
                     Specfp.all))));
    let rendered =
      "Figure 7: mean ED2 ratio vs number of supported frequencies\n"
      ^ Tablefmt.render t
      ^ "(paper: 16 freqs within 0.1% of any; 8 freqs < 1% worse; 4 freqs \
         ~2% worse)\n\n"
    in
    let expected = In_channel.with_open_bin golden In_channel.input_all in
    if rendered = expected then true
    else begin
      note_problem problems ("Figure 7 table differs from " ^ golden);
      false
    end
  end

(* ----- untraced pass: end-to-end metrics ------------------------------ *)

let measure cfg =
  let pops, setup_s = Workload.setup ~release:ignore populations in
  let loops_of (c : Sweep.cell) = List.assoc c.Sweep.bench pops in
  let problems = ref [] in
  let times = Stats.samples () and failed = ref 0 in
  let outcomes = Hashtbl.create 64 in
  let wall =
    over_cells cfg (fun c gi ->
        let o, dt = Stats.timed (fun () -> Sweep.run_cell ~loops_of c) in
        Stats.add times (dt *. 1e3);
        Hashtbl.replace outcomes (c.Sweep.bench, gi) o.Sweep.ed2_ratio;
        match o.Sweep.error with
        | Some msg ->
          incr failed;
          note_problem problems (c.Sweep.bench ^ ": " ^ msg)
        | None ->
          if not (check_ratio problems c gi o.Sweep.ed2_ratio) then incr failed)
  in
  let golden_ok = check_golden problems outcomes in
  let times = Stats.values times in
  let n = Array.length times in
  let tail = Stats.tail times in
  {
    correct = !failed = 0 && golden_ok;
    attempted = n;
    failed = !failed;
    metrics =
      [
        ("setup_s", setup_s);
        ("ops_per_s", float_of_int n /. wall);
        ("op_p50_ms", Stats.median times);
        ("op_tail_ms", tail.Stats.value);
      ];
    notes =
      [
        Printf.sprintf "op_tail_ms is p%g of %d cells" tail.Stats.pct
          tail.Stats.samples;
      ];
    problems = List.rev !problems;
    tree = None;
  }

(* ----- traced pass: per-layer metrics --------------------------------- *)

let node_ms (n : Trace.node) = n.Trace.wall_ns /. 1e6

(* Per-layer metrics from the traced cells.  Every number comes from the
   span tree: the bench's ["cell"] spans and, beneath them, the
   pipeline's own ["stage:*"], ["candidate:*"] and ["loop:*"] spans and
   counters.  Inside hsched, partition/pseudo/slot scheduling are counted
   but not timed: the program has no spans there. *)
let layer_metrics (root : Trace.node) ~overhead ~ed2 ~chosen_fallbacks =
  let cells = Tree.children_named "cell" root in
  let n_cells = float_of_int (List.length cells) in
  let per_cell f =
    List.fold_left (fun acc c -> acc +. f c) 0.0 cells /. n_cells
  in
  let stage name c = Tree.wall_ms (Tree.children_named ("stage:" ^ name) c) in
  let stages_ms c =
    List.fold_left (fun acc s -> acc +. stage s c) 0.0 Pipeline.stage_names
  in
  let loops = Tree.with_prefix "loop:" root in
  let loop_ms = Array.of_list (List.map node_ms loops) in
  let calls = float_of_int (List.length loops) in
  let count name = float_of_int (Trace.counter_total root name) in
  let count_prefix p = float_of_int (Tree.counters_with_prefix root p) in
  let attempts = count "hsched.attempts" in
  let pseudo = count "pseudo.evals" in
  let exact = count "partition.exact_evals" in
  let memo_hits = count "partition.score_memo_hits" in
  let reuses = count "partition.hier_reuses" in
  let builds = count "partition.hier_builds" in
  let hsched_ms =
    per_cell (fun c -> Tree.wall_ms (Tree.with_prefix "loop:" c))
  in
  [
    ("profile.ms", per_cell (stage "profile"));
    ( "select.ms",
      per_cell (fun c ->
          stage "context" c +. stage "homo-optimum" c +. stage "select" c) );
    ("hsched.ms", hsched_ms);
    ("hsched.calls", calls /. n_cells);
    ("hsched.loop_p50_ms", Stats.median loop_ms);
    ("hsched.loop_tail_ms", (Stats.tail loop_ms).Stats.value);
    ("hsched.attempts", ratio attempts calls);
    ( "hsched.attempt_yield",
      ratio (calls -. count_prefix "fallback.") attempts );
    ("hsched.slot_failures", ratio (count_prefix "hsched.slot.") calls);
    ("pseudo.evals", ratio pseudo calls);
    ( "pseudo.feasible_ratio",
      ratio (pseudo -. count "pseudo.infeasible") pseudo );
    ("partition.exact_evals", ratio exact calls);
    ("partition.memo_hit_ratio", ratio memo_hits (memo_hits +. exact));
    ("partition.hier_reuse_ratio", ratio reuses (reuses +. builds));
    ("hsched.us_per_pseudo_eval", ratio (hsched_ms *. n_cells *. 1e3) pseudo);
    ("schedule.self_ms", per_cell (stage "schedule") -. hsched_ms);
    ("evaluate.ms", per_cell (stage "evaluate"));
    ("pipeline.other_ms", per_cell (fun c -> node_ms c -. stages_ms c));
    ("layers.sum_ratio", ratio (per_cell stages_ms) (per_cell node_ms));
    ("trace_overhead_ratio", overhead);
    ("fig7.ed2_ratio_mean", Stats.mean (Array.of_list ed2));
    ("fig7.fallback_loops", float_of_int chosen_fallbacks);
  ]

let illegal_schedules (r : Pipeline.t) =
  List.filter_map
    (fun (lr : Pipeline.loop_result) ->
      match Hcv_check.Legal.verify lr.Pipeline.schedule with
      | Ok () -> None
      | Error vs -> Some (String.concat "; " (Hcv_check.Legal.to_strings vs)))
    r.Pipeline.loop_results

let measure_traced cfg =
  let pops = populations () in
  let loops_of (c : Sweep.cell) = List.assoc c.Sweep.bench pops in
  let root = Trace.root "fig7-quick" in
  let problems = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let traced_s = ref 0.0 and untraced_s = ref 0.0 in
  let ed2 = ref [] and fallbacks = ref 0 in
  let fail msg =
    incr failed;
    note_problem problems msg
  in
  ignore
    (over_cells cfg (fun c gi ->
         incr attempted;
         let name = c.Sweep.bench in
         (* Pipeline.run directly: Sweep strips the cell's wall times. *)
         let r, dt =
           Stats.timed (fun () ->
               Trace.span root "cell"
                 ~attrs:[ ("bench", name); ("grid", grid_label grids.(gi)) ]
                 (fun sp ->
                   Pipeline.run ~obs:sp ~machine:(Sweep.machine_of_cell c)
                     ~name ~loops:(loops_of c) ()))
         in
         traced_s := !traced_s +. dt;
         let o, dt = Stats.timed (fun () -> Sweep.run_cell ~loops_of c) in
         untraced_s := !untraced_s +. dt;
         match r with
         | Error d -> fail (name ^ ": " ^ Hcv_obs.Diag.to_string d)
         | Ok r -> (
           ed2 := r.Pipeline.ed2_ratio :: !ed2;
           fallbacks := !fallbacks + r.Pipeline.fallbacks;
           match illegal_schedules r with
           | v :: _ -> fail (name ^ ": illegal schedule: " ^ v)
           | [] ->
             if
               Int64.bits_of_float r.Pipeline.ed2_ratio
               <> Int64.bits_of_float o.Sweep.ed2_ratio
             then fail (name ^ ": traced ED2 ratio differs from Sweep.run_cell")
             else if not (check_ratio problems c gi r.Pipeline.ed2_ratio) then
               incr failed)));
  let tree = Option.get (Trace.export root) in
  let metrics =
    layer_metrics tree ~overhead:(ratio !traced_s !untraced_s) ~ed2:!ed2
      ~chosen_fallbacks:!fallbacks
  in
  let sum_ratio = List.assoc "layers.sum_ratio" metrics in
  let sums_ok = Float.abs (sum_ratio -. 1.0) <= 0.05 in
  if not sums_ok then
    note_problem problems
      (Printf.sprintf "stage times sum to %.3f of cell wall time" sum_ratio);
  {
    correct = !failed = 0 && sums_ok;
    attempted = !attempted;
    failed = !failed;
    metrics;
    notes = [];
    problems = List.rev !problems;
    tree = Some tree;
  }

let run cfg = if cfg.trace then measure_traced cfg else measure cfg
