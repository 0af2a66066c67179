(* The sweep engine: memoisation, decode-failure recovery,
   resume-from-partial-cache determinism, and supervised execution
   (per-cell quarantine instead of fan-out aborts). *)

open Hcv_explore
module R = Hcv_resilience

(* A codec for (int -> int * int) cells with a computation counter, so
   tests can distinguish cached from computed results.  Atomic because
   workers run on separate domains. *)
let computed = Atomic.make 0

let square x =
  Atomic.incr computed;
  (x, x * x)

let codec =
  {
    Engine.cell_key = (fun x -> Printf.sprintf "cell-%d" x);
    encode = (fun (x, y) -> Printf.sprintf "%d:%d" x y);
    decode =
      (fun s ->
        match String.split_on_char ':' s with
        | [ a; b ] -> (
            match (int_of_string_opt a, int_of_string_opt b) with
            | Some a, Some b -> Some (a, b)
            | _ -> None)
        | _ -> None);
  }

let with_engine ?jobs ?cache ?policy f =
  let e = Engine.create ?jobs ?cache ?policy () in
  Fun.protect ~finally:(fun () -> Engine.shutdown e) (fun () -> f e)

let xs = List.init 12 (fun i -> i)
let expected = List.map (fun x -> (x, x * x)) xs

(* Unwrap a supervised sweep that is expected to be failure-free. *)
let oks rs =
  List.map
    (function
      | Ok v -> v
      | Error d -> Alcotest.failf "unexpected quarantine: %s" (Hcv_obs.Diag.to_string d))
    rs

let test_warm_cache_computes_nothing () =
  let cache = Cache.in_memory () in
  with_engine ~cache (fun e ->
      Atomic.set computed 0;
      let cold = oks (Engine.sweep e ~codec square xs) in
      Alcotest.(check int) "cold run computes all" 12 (Atomic.get computed);
      Alcotest.(check (list (pair int int))) "cold results" expected cold;
      let warm = oks (Engine.sweep e ~codec square xs) in
      Alcotest.(check int) "warm run computes nothing" 12 (Atomic.get computed);
      Alcotest.(check (list (pair int int))) "warm results equal" expected warm;
      let s = Cache.stats cache in
      Alcotest.(check int) "12 hits" 12 s.Cache.hits;
      Alcotest.(check int) "12 misses" 12 s.Cache.misses)

let test_decode_failure_recomputes () =
  let cache = Cache.in_memory () in
  (* Poison one entry with bytes the codec cannot decode. *)
  Cache.store cache ~key:(codec.Engine.cell_key 5) "garbage";
  with_engine ~cache (fun e ->
      Atomic.set computed 0;
      let out = oks (Engine.sweep e ~codec square xs) in
      Alcotest.(check (list (pair int int)))
        "results correct despite poison" expected out;
      Alcotest.(check int) "all recomputed (none cached)" 12 (Atomic.get computed);
      let s = Cache.stats cache in
      Alcotest.(check int) "poisoned probe is not a hit" 0 s.Cache.hits;
      (* The recomputed value replaced the poison. *)
      Atomic.set computed 0;
      ignore (Engine.sweep e ~codec square [ 5 ]);
      Alcotest.(check int) "healed entry now serves" 0 (Atomic.get computed))

let test_resume_from_partial_cache () =
  (* Simulate a killed sweep: only a prefix of the cells made it to
     the cache.  The resumed sweep must complete the rest and return
     exactly what an uninterrupted run returns. *)
  let cache = Cache.in_memory () in
  with_engine ~cache (fun e ->
      ignore (Engine.sweep e ~codec square (Hcv_support.Listx.take 5 xs)));
  with_engine ~jobs:3 ~cache (fun e ->
      Atomic.set computed 0;
      let resumed = oks (Engine.sweep e ~codec square xs) in
      Alcotest.(check (list (pair int int)))
        "resumed output identical" expected resumed;
      Alcotest.(check int) "only the missing cells computed" 7 (Atomic.get computed))

let test_sweep_parallel_matches_serial () =
  let serial =
    let cache = Cache.in_memory () in
    with_engine ~cache (fun e -> oks (Engine.sweep e ~codec square xs))
  in
  let parallel =
    let cache = Cache.in_memory () in
    with_engine ~jobs:4 ~cache (fun e -> oks (Engine.sweep e ~codec square xs))
  in
  Alcotest.(check (list (pair int int))) "jobs=4 equals jobs=1" serial parallel

(* The daemon keeps one engine for its whole life and runs one sweep
   per batch, so a sweep must leave nothing behind: live heap words
   after 20,000 warm sweeps stay where they were after the first
   2,000. *)
let test_warm_sweeps_retain_nothing () =
  let cache = Cache.in_memory () in
  with_engine ~cache (fun e ->
      ignore (oks (Engine.sweep e ~codec square [ 1 ]));
      let live_after n =
        for _ = 1 to n do
          ignore (Engine.sweep e ~codec square [ 1 ])
        done;
        Gc.full_major ();
        (Gc.quick_stat ()).Gc.live_words
      in
      let before = live_after 2_000 in
      let growth = live_after 18_000 - before in
      if growth >= 1_000 then
        Alcotest.failf "18,000 warm sweeps grew the live heap by %d words"
          growth)

(* ----- supervised execution ---------------------------------------- *)

(* Injected transient faults are retried away: the sweep output is the
   fault-free output, and nothing is quarantined. *)
let test_transient_fault_recovered () =
  let plan =
    R.Inject.plan ~seed:7
      [ R.Inject.spec ~prob:1.0 ~max_fires:2 R.Inject.Task_raise ]
  in
  let out =
    R.Inject.with_plan plan (fun () ->
        with_engine (fun e -> Engine.sweep e ~codec square xs))
  in
  Alcotest.(check int) "both injected faults fired" 2
    (R.Inject.total_fires plan);
  Alcotest.(check (list (pair int int)))
    "recovered output identical to fault-free" expected (oks out)

(* A persistently failing cell is quarantined in its own slot; every
   other cell completes, and the poisoned cell is never cached. *)
let test_permanent_fault_quarantined () =
  let cache = Cache.in_memory () in
  let plan =
    R.Inject.plan ~seed:7
      [
        R.Inject.spec ~prob:1.0 ~max_fires:max_int ~key:"cell-5"
          ~transient:false R.Inject.Task_raise;
      ]
  in
  List.iter
    (fun jobs ->
      let out =
        R.Inject.with_plan plan (fun () ->
            with_engine ~jobs ~cache (fun e -> Engine.sweep e ~codec square xs))
      in
      let quarantined =
        List.filteri (fun i r -> Result.is_error r && i <> 5) out
      in
      Alcotest.(check int)
        (Printf.sprintf "only cell 5 quarantined (jobs=%d)" jobs)
        0
        (List.length quarantined);
      (match List.nth out 5 with
      | Error d ->
        Alcotest.(check string) "injected-fault code" "injected-fault"
          (Hcv_obs.Diag.code d)
      | Ok _ -> Alcotest.fail "cell 5 should be quarantined");
      List.iteri
        (fun i r ->
          if i <> 5 then
            match r with
            | Ok v ->
              Alcotest.(check (pair int int))
                (Printf.sprintf "cell %d completes" i)
                (i, i * i) v
            | Error d ->
              Alcotest.failf "cell %d quarantined: %s" i
                (Hcv_obs.Diag.to_string d))
        out;
      Alcotest.(check (option string))
        (Printf.sprintf "failed cell never cached (jobs=%d)" jobs)
        None
        (let r = Cache.find cache "cell-5" in
         Cache.demote_hit cache;
         r))
    [ 1; 3 ]

(* An unhandled real exception in a task is retried, then quarantined
   with the exception in the diagnostic context — the fan-out never
   aborts. *)
let test_real_exception_quarantined () =
  let attempts = Atomic.make 0 in
  let f x =
    if x = 3 then begin
      Atomic.incr attempts;
      failwith "boom"
    end
    else square x
  in
  let out =
    with_engine
      ~policy:{ R.Retry.max_attempts = 3; backoff_s = 0.0; jitter = 0.0 }
      (fun e -> Engine.sweep e ~codec f xs)
  in
  Alcotest.(check int) "retried to the attempt budget" 3
    (Atomic.get attempts);
  (match List.nth out 3 with
  | Error d ->
    Alcotest.(check string) "task-failed code" "task-failed"
      (Hcv_obs.Diag.code d);
    Alcotest.(check bool) "exception recorded" true
      (List.mem_assoc "exn" (Hcv_obs.Diag.fields d))
  | Ok _ -> Alcotest.fail "cell 3 should be quarantined");
  Alcotest.(check int) "all other cells completed" 11
    (List.length (List.filter Result.is_ok out))

let suite =
  [
    Alcotest.test_case "warm cache computes nothing" `Quick
      test_warm_cache_computes_nothing;
    Alcotest.test_case "decode failure recomputes" `Quick
      test_decode_failure_recomputes;
    Alcotest.test_case "resume from partial cache" `Quick
      test_resume_from_partial_cache;
    Alcotest.test_case "parallel sweep equals serial" `Quick
      test_sweep_parallel_matches_serial;
    Alcotest.test_case "warm sweeps retain nothing" `Quick
      test_warm_sweeps_retain_nothing;
    Alcotest.test_case "transient fault retried away" `Quick
      test_transient_fault_recovered;
    Alcotest.test_case "permanent fault quarantined per cell" `Quick
      test_permanent_fault_quarantined;
    Alcotest.test_case "real exception quarantined with context" `Quick
      test_real_exception_quarantined;
  ]
