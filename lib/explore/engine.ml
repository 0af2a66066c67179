module Inject = Hcv_resilience.Inject
module Retry = Hcv_resilience.Retry

type t = { pool : Pool.t; cache : Cache.t option; policy : Retry.policy }

type ('a, 'b) codec = {
  cell_key : 'a -> string;
  encode : 'b -> string;
  decode : string -> 'b option;
}

let create ?(jobs = 1) ?cache ?(policy = Retry.default_policy) () =
  { pool = Pool.create ~jobs (); cache; policy }

let jobs t = Pool.jobs t.pool
let cache t = t.cache

(* Wrap a worker task so its wall time accumulates into a per-worker
   volatile gauge of [obs] (utilisation is run-dependent by nature, so
   it must never land in the deterministic counters). *)
let timed_on_worker obs f =
  if not (Hcv_obs.Trace.enabled obs) then f
  else fun x ->
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        Hcv_obs.Trace.vol obs
          (Printf.sprintf "worker%d.busy_s"
             ((Domain.self () :> int)))
          (Unix.gettimeofday () -. t0))
      (fun () -> f x)

(* A probed cell: either already answered by the cache, or still to
   compute under its key. *)
type ('a, 'b) probe = Hit of 'b | Todo of string * 'a

(* Supervise one cell: fault points fire first (so chaos runs exercise
   the retry path, not the task body), then the task runs under the
   bounded-retry policy.  A cell that still fails is quarantined as a
   Diag — never cached, so a later run retries it.  Retry and
   quarantine tallies are volatile gauges: they depend on the armed
   fault plan and the cache state, so they must not reach the
   deterministic counter view. *)
let supervised t ~obs ~codec f (key, x) =
  let r =
    Retry.run ~policy:t.policy
      ~on_retry:(fun ~attempt:_ _ ->
        Hcv_obs.Trace.vol obs "resilience.retries" 1.0)
      ~label:key
      (fun () ->
        Inject.raise_if ~key Task_raise;
        if Inject.fire ~key Slow_cell then Unix.sleepf 0.002;
        f x)
  in
  (match r with
  | Ok v -> (
    (* Store as soon as the cell completes — this is the checkpoint a
       killed run resumes from, so it must not wait for the rest of
       the stage. *)
    match t.cache with
    | None -> ()
    | Some c -> Cache.store c ~key (codec.encode v))
  | Error _ -> Hcv_obs.Trace.vol obs "resilience.quarantined" 1.0);
  r

let sweep t ?(obs = Hcv_obs.Trace.null) ~codec f xs =
  let probes =
    List.map
      (fun x ->
        let key = codec.cell_key x in
        match t.cache with
        | None -> Todo (key, x)
        | Some c -> (
          match Cache.find c key with
          | None -> Todo (key, x)
          | Some s -> (
            match codec.decode s with
            | Some v -> Hit v
            | None ->
              (* Corrupt or stale value: recompute the cell. *)
              Cache.demote_hit c;
              Todo (key, x))))
      xs
  in
  let todo =
    List.filter_map
      (function Todo (k, x) -> Some (k, x) | Hit _ -> None)
      probes
  in
  (* Cells served vs computed are cache-state-dependent, so they are
     volatile gauges; only the total cell count is a deterministic
     counter. *)
  Hcv_obs.Trace.add obs "cells" (List.length xs);
  Hcv_obs.Trace.vol obs "cache.hits"
    (float_of_int (List.length xs - List.length todo));
  Hcv_obs.Trace.vol obs "cache.computed" (float_of_int (List.length todo));
  let computed =
    Pool.map t.pool (timed_on_worker obs (supervised t ~obs ~codec f)) todo
  in
  (* Re-assemble in submission order. *)
  let rec zip probes computed =
    match probes with
    | [] ->
      assert (computed = []);
      []
    | Hit v :: rest -> Ok v :: zip rest computed
    | Todo _ :: rest -> (
      match computed with v :: vs -> v :: zip rest vs | [] -> assert false)
  in
  zip probes computed

let shutdown t =
  Fun.protect
    ~finally:(fun () -> Option.iter Cache.close t.cache)
    (fun () -> Pool.shutdown t.pool)
