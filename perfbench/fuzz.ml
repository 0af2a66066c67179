(* fuzz-battery: [Check.Gen] cases through [Check.Diff.check_case],
   serially and without shrinking.  It drives the same hsched layer as
   fig7-quick, but on many tiny loops over capability-asymmetric machines
   (where eligibility masks apply), plus the legality oracle, the
   simulator replay and the energy and estimate cross-checks that fig7
   never reaches.  A scheduler change that helps big loops but costs
   small ones shows up here.

   A run checks the first [200 x seconds] cases [hcvliw fuzz] checks at
   its default seed 42 (a case takes about 5 ms), in a seeded order.
   Which cases a run covers does not depend on [--seed]: case costs are
   heavy-tailed (0.5-100 ms), and the tail of a seed-drawn sample of a
   few thousand moved by a fifth from seed to seed, against a tenth for
   the same cases. *)

open Hcv_support
open Workload
module Gen = Hcv_check.Gen
module Diff = Hcv_check.Diff
module Trace = Hcv_obs.Trace

let corpus_seed = 42
let cases_per_second = 200.0

(* [check_case]'s default estimate band [0.2, 5] is a tuning target
   that about one random case in 5,000 misses (ratios from 0.17 to 5.3
   were seen in 40,000 cases) without anything being wrong.  The
   benchmark must not fail on such cases, so it widens the band to
   [0.1, 10]; every other check keeps its default. *)
let tol =
  { Diff.default_tolerances with Diff.est_ratio_lo = 0.1; est_ratio_hi = 10.0 }

(* The run's case seeds, drawn exactly as [Check.Diff.run
   ~seed:corpus_seed] draws them. *)
let case_seeds cfg =
  let n = Workload.ops cfg ~per_second:cases_per_second ~smoke:100 in
  let rng = Rng.create corpus_seed in
  Array.init n (fun _ -> Int64.to_int (Rng.next rng) land max_int)

let problem_text (c : Gen.case) (o : Diff.outcome) =
  String.concat "; "
    (List.map
       (fun (cat, detail) ->
         Printf.sprintf "case %d: %s: %s" c.Gen.seed
           (Diff.category_to_string cat) detail)
       o.Diff.problems)

(* Run [op] on every case index in a seeded order; returns the wall
   time in seconds. *)
let over_cases cfg n op =
  let order = Rng.shuffle (Rng.create cfg.seed) (List.init n Fun.id) in
  snd (Stats.timed (fun () -> List.iter op order))

let measure cfg =
  let seeds = case_seeds cfg in
  let cases, setup_s =
    Workload.setup ~release:ignore (fun () ->
        Array.map (fun seed -> Gen.case ~seed) seeds)
  in
  let problems = ref [] and failed = ref 0 and times = Stats.samples () in
  let ops = Array.length cases in
  let wall =
    over_cases cfg ops (fun i ->
        let c = cases.(i) in
        let o, dt = Stats.timed (fun () -> Diff.check_case ~tol c) in
        Stats.add times (dt *. 1e3);
        if o.Diff.problems <> [] then begin
          incr failed;
          note_problem problems (problem_text c o)
        end)
  in
  let times = Stats.values times in
  let tail = Stats.tail times in
  {
    correct = !failed = 0;
    attempted = ops;
    failed = !failed;
    metrics =
      [
        ("setup_s", setup_s);
        ("ops_per_s", float_of_int ops /. wall);
        ("op_p50_ms", Stats.median times);
        ("op_tail_ms", tail.Stats.value);
      ];
    notes =
      [
        Printf.sprintf "op_tail_ms is p%g of %d case checks" tail.Stats.pct
          tail.Stats.samples;
      ];
    problems = List.rev !problems;
    tree = None;
  }

(* Traced pass: each case is generated and checked in bench-side
   ["gen"]/["check"] spans under a ["case"] span ([check_case] has no
   spans of its own), and generated and checked once more untraced for
   the overhead ratio. *)
let measure_traced cfg =
  let seeds = case_seeds cfg in
  let root = Trace.root "fuzz-battery" in
  let problems = ref [] and failed = ref 0 and scheduled = ref 0 in
  let traced_s = ref 0.0 and untraced_s = ref 0.0 in
  let ops = Array.length seeds in
  ignore
    (over_cases cfg ops (fun i ->
        let (c, o), dt =
          Stats.timed (fun () ->
              Trace.span root "case" (fun sp ->
                  let c =
                    Trace.span sp "gen" (fun _ -> Gen.case ~seed:seeds.(i))
                  in
                  (c, Trace.span sp "check" (fun _ -> Diff.check_case ~tol c))))
        in
        traced_s := !traced_s +. dt;
        let _, dt =
          Stats.timed (fun () ->
              Diff.check_case ~tol (Gen.case ~seed:seeds.(i)))
        in
        untraced_s := !untraced_s +. dt;
        if o.Diff.scheduled then incr scheduled;
        if o.Diff.problems <> [] then begin
          incr failed;
          note_problem problems (problem_text c o)
        end));
  let tree = Option.get (Trace.export root) in
  let cases = Tree.children_named "case" tree in
  let walls name =
    Array.of_list
      (List.concat_map
         (fun c ->
           List.map
             (fun (n : Trace.node) -> n.Trace.wall_ns /. 1e6)
             (Tree.children_named name c))
         cases)
  in
  let gen = walls "gen" and check = walls "check" in
  let sum = Array.fold_left ( +. ) 0.0 in
  {
    correct = !failed = 0;
    attempted = ops;
    failed = !failed;
    metrics =
      [
        ("fuzz.gen_ms", Stats.mean gen);
        ("fuzz.check_ms", Stats.median check);
        ("fuzz.check_tail_ms", (Stats.tail check).Stats.value);
        ( "fuzz.scheduled_ratio",
          ratio (float_of_int !scheduled) (float_of_int ops) );
        ("layers.sum_ratio", ratio (sum gen +. sum check) (Tree.wall_ms cases));
        ("trace_overhead_ratio", ratio !traced_s !untraced_s);
      ];
    notes = [];
    problems = List.rev !problems;
    tree = Some tree;
  }

let run cfg = if cfg.trace then measure_traced cfg else measure cfg
