open Hcv_support

type policy = { max_attempts : int; backoff_s : float; jitter : float }

let default_policy = { max_attempts = 3; backoff_s = 0.001; jitter = 0.5 }

(* FNV-1a over the label bytes: the jitter stream of a task is a pure
   function of its label (the engine passes the cell key), so two runs
   of the same cell sleep the same schedule — while distinct cells
   de-synchronise instead of retrying in lockstep. *)
let seed_of_label label =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    label;
  Int64.to_int !h

let schedule ?(policy = default_policy) ~label () =
  let jitter = Float.min 1.0 (Float.max 0.0 policy.jitter) in
  let rng = Rng.create (seed_of_label label) in
  List.init
    (max 0 (policy.max_attempts - 1))
    (fun i ->
      let base = policy.backoff_s *. float_of_int (1 lsl i) in
      (* Jitter shrinks the sleep (never grows it): full backoff stays
         the worst case, and jitter = 0 is the exact exponential. *)
      base *. (1.0 -. (jitter *. Rng.float rng 1.0)))

let run ?(policy = default_policy) ?(on_retry = fun ~attempt:_ _ -> ())
    ~label f =
  let max_attempts = max 1 policy.max_attempts in
  let sleeps = lazy (Array.of_list (schedule ~policy ~label ())) in
  let rec go attempt =
    match f () with
    | v -> Ok v
    | exception Inject.Injected { point; transient = false } ->
      (* A persistent injected fault models a deterministic bug:
         retrying cannot help, so fail fast with its own code. *)
      Error
        (Hcv_obs.Diag.v ~code:"injected-fault"
           ~context:
             [
               ("task", label);
               ("point", Inject.point_name point);
               ("attempt", string_of_int attempt);
             ]
           "persistent injected fault")
    | exception e ->
      if attempt < max_attempts then begin
        on_retry ~attempt e;
        let s = (Lazy.force sleeps).(attempt - 1) in
        if s > 0.0 then Unix.sleepf s;
        go (attempt + 1)
      end
      else
        Error
          (Hcv_obs.Diag.v ~code:"task-failed"
             ~context:
               [
                 ("task", label);
                 ("attempts", string_of_int attempt);
                 ("exn", Printexc.to_string e);
               ]
             "task failed on every attempt")
  in
  go 1
