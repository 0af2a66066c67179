(* What every workload receives and returns. *)

type cfg = {
  seed : int;  (** the only source of workload randomness *)
  seconds : float;  (** nominal measuring time of one run *)
  trace : bool;  (** traced pass: per-layer metrics instead of end-to-end *)
  smoke : bool;  (** a fixed handful of ops instead of [seconds]' worth *)
}

type result = {
  correct : bool;  (** every correctness check passed *)
  attempted : int;  (** ops issued: cells, cases or requests *)
  failed : int;  (** ops that errored or answered wrongly *)
  metrics : (string * float) list;
      (** end-to-end metrics, or per-layer ones on a traced pass; units
          come from the tables in [Main] *)
  notes : string list;  (** extra human-readable detail lines *)
  problems : string list;  (** first failures, for the error report *)
  tree : Hcv_obs.Trace.node option;  (** the traced pass's span tree *)
}

(* How many ops a run measures: [cfg.seconds] at the workload's nominal
   rate ([per_second], measured on the 2-core VM the benchmark was
   written on), or [smoke] in a smoke run.  Sizing a run by count rather
   than by elapsed time gives every run the same work, so runs differ
   only by timing noise; on a faster or slower host a run just measures
   for less or more time. *)
let ops cfg ~per_second ~smoke =
  if cfg.smoke then smoke
  else max 1 (int_of_float (Float.round (cfg.seconds *. per_second)))

(* Median of [setup_reps] timed set-ups; returns the last set-up's value
   (the one the run measures with) and the median time in seconds.
   [release] tears down every set-up but the last.  Each set-up starts
   from a collected heap, so none pays for the garbage of the one
   before.  Set-ups take milliseconds, so a single one would mostly
   measure the host. *)
let setup_reps = 11

let setup ~release f =
  let rec go i times =
    Gc.full_major ();
    let v, dt = Stats.timed f in
    if i + 1 >= setup_reps then (v, Stats.median (Array.of_list (dt :: times)))
    else begin
      release v;
      go (i + 1) (dt :: times)
    end
  in
  go 0 []

(* Keep at most a few failure messages for the report. *)
let note_problem problems msg =
  if List.length !problems < 5 then problems := msg :: !problems

(* Per-layer helpers over an exported span tree. *)
module Tree = struct
  open Hcv_obs.Trace

  let rec fold f acc (n : node) =
    List.fold_left (fold f) (f acc n) n.children

  let with_prefix prefix node =
    List.rev
      (fold
         (fun acc n ->
           if String.starts_with ~prefix n.name then n :: acc else acc)
         [] node)

  let wall_ms nodes =
    List.fold_left (fun acc (n : node) -> acc +. (n.wall_ns /. 1e6)) 0.0 nodes

  (* Sum of every counter whose name starts with [prefix]. *)
  let counters_with_prefix node prefix =
    fold
      (fun acc n ->
        List.fold_left
          (fun acc (k, v) ->
            if String.starts_with ~prefix k then acc + v else acc)
          acc n.counters)
      0 node

  let children_named name (n : node) =
    List.filter (fun (c : node) -> c.name = name) n.children
end

let ratio num den = if den = 0.0 then 0.0 else num /. den
