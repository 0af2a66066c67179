(* Seeded fuzz runs as part of the unit-test suite: 200 differential
   cases with a fixed seed (so CI is deterministic), plus three shrunk
   corruption repros pinned as goldens under test/golden/. *)

open Hcv_ir
open Hcv_machine
open Hcv_sched
open Hcv_check

let fixed_seed = 20260807

let test_fuzz_200 () =
  let r = Diff.run ~shrink:false ~seed:fixed_seed ~cases:200 () in
  List.iter
    (fun (f : Diff.failure) ->
      Printf.printf "FAIL seed %d [%s]: %s\n%s\n" f.Diff.seed
        (Diff.category_to_string f.Diff.category)
        f.Diff.detail f.Diff.repro)
    r.Diff.failures;
  Alcotest.(check int) "zero failures" 0 (List.length r.Diff.failures);
  (* The generators must keep producing mostly-schedulable cases:
     unschedulable cases exercise nothing. *)
  Alcotest.(check bool)
    (Printf.sprintf "scheduled %d >= 180 of 200" r.Diff.scheduled)
    true
    (r.Diff.scheduled >= 180)

(* A logged failure replays its case: the seed reads back exactly, past
   2^53 too, where a JSON number would have been rounded. *)
let test_logged_seed_exact () =
  let seed = 1774382159293519383 in
  let f =
    {
      Diff.seed;
      category = Diff.Estimate_out_of_band;
      detail = "";
      repro = "";
    }
  in
  let line = Hcv_explore.Jsonx.to_string (Diff.failure_json f) in
  let logged =
    Hcv_explore.Decode.(
      of_string
        (peek "failure" (req "seed" (refine "a seed" int_of_string_opt string)))
        line)
  in
  Alcotest.(check (result int string)) line (Ok seed) logged

(* ----- pinned shrunk repros ---------------------------------------- *)

let ctx_for machine =
  let n = Machine.n_clusters machine in
  let act =
    Hcv_energy.Activity.make ~exec_time_ns:1e6
      ~per_cluster_ins_energy:(Array.make n 100.)
      ~n_comms:100. ~n_mem:100.
  in
  Hcv_energy.Model.ctx ~params:Hcv_energy.Params.default
    ~units:
      (Hcv_energy.Units.of_reference ~params:Hcv_energy.Params.default
         ~n_clusters:n act)
    ()

let schedule_of (c : Gen.case) =
  match
    Hcv_core.Hsched.schedule ~ctx:(ctx_for c.Gen.machine) ~config:c.Gen.config
      ~loop:c.Gen.loop ()
  with
  | Ok (sched, _) -> Some sched
  | Error _ | (exception _) -> None

let flags_rule rule = function
  | Ok () -> false
  | Error vs ->
    List.exists (fun (v : Legal.violation) -> v.Legal.rule = rule) vs

(* [keep] for the shrinker: schedule the case, apply the corruption,
   and require the oracle to still flag [rule]. *)
let keep_corrupt corrupt rule c =
  match schedule_of c with
  | None -> false
  | Some sched -> flags_rule rule (Legal.verify (corrupt sched))

(* The three pinned corruption scenarios. *)
let corruptions =
  [
    (* Every instruction piled onto cluster 0, cycle 0. *)
    ( "fu_overcommit",
      "fu-capacity",
      fun (s : Schedule.t) ->
        {
          s with
          Schedule.placements =
            Array.map
              (fun _ -> { Schedule.cluster = 0; cycle = 0 })
              s.Schedule.placements;
          transfers = [];
        } );
    (* The destination of the first dependence edge pulled one cycle
       earlier. *)
    ( "dependence_shift",
      "dependence",
      fun (s : Schedule.t) ->
        match Ddg.edges s.Schedule.loop.Loop.ddg with
        | [] -> s
        | e :: _ ->
          let p = Array.copy s.Schedule.placements in
          p.(e.Edge.dst) <-
            {
              (p.(e.Edge.dst)) with
              Schedule.cycle = p.(e.Edge.dst).Schedule.cycle - 1;
            };
          { s with Schedule.placements = p } );
    (* Every transfer departing at bus cycle 0 — before its value can
       have crossed the synchronisation queue. *)
    ( "transfer_too_early",
      "transfer",
      fun (s : Schedule.t) ->
        {
          s with
          Schedule.transfers =
            List.map
              (fun tr -> { tr with Schedule.bus_cycle = 0 })
              s.Schedule.transfers;
        } );
  ]

(* First seed at or above a fixed base whose scheduled corruption trips
   the rule — deterministic, and robust to generator drift. *)
let find_case corrupt rule =
  let rec go seed =
    if seed > 6000 then Alcotest.fail "no seed reproduces the corruption"
    else
      let c = Gen.case ~seed in
      if keep_corrupt corrupt rule c then c else go (seed + 1)
  in
  go 5000

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Under `dune runtest` the cwd is _build/default/test (the goldens are
   declared as deps); under `dune exec` from the repo root they live
   under test/golden. *)
let golden_path name =
  let rel = Printf.sprintf "golden/check_%s.txt" name in
  if Sys.file_exists rel then rel else Filename.concat "test" rel

let test_pinned_repro (name, rule, corrupt) () =
  let c = find_case corrupt rule in
  let shrunk = Gen.shrink ~keep:(keep_corrupt corrupt rule) c in
  (* Still reproduces after shrinking... *)
  Alcotest.(check bool) "shrunk case still reproduces" true
    (keep_corrupt corrupt rule shrunk);
  (* ...and matches the pinned golden byte for byte. *)
  let actual = Gen.print_case shrunk in
  let golden = golden_path name in
  (* HCV_BLESS=1 dune exec test/main.exe (from the repo root) rewrites
     the goldens after a deliberate generator change. *)
  if Sys.getenv_opt "HCV_BLESS" <> None then begin
    let oc = open_out_bin golden in
    output_string oc actual;
    close_out oc
  end
  else if not (Sys.file_exists golden) then
    Alcotest.failf "missing golden %s; expected contents:\n%s" golden actual
  else
    Alcotest.(check string)
      (Printf.sprintf "matches %s" golden)
      (read_file golden) actual

let suite =
  Alcotest.test_case "200 seeded differential cases" `Quick test_fuzz_200
  :: Alcotest.test_case "logged seeds are exact" `Quick test_logged_seed_exact
  :: List.map
       (fun ((name, _, _) as sc) ->
         Alcotest.test_case
           (Printf.sprintf "pinned repro: %s" name)
           `Quick (test_pinned_repro sc))
       corruptions
