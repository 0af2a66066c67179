(* Timing and summary statistics shared by every workload: one
   monotonic clock, flat sample buffers, median, the tail rule, peak RSS
   and the scratch-directory helpers. *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* Seconds since a [now_ns] reading. *)
let since_s t0 = (now_ns () -. t0) /. 1e9

(* Run [f] and return its result with its wall time in seconds. *)
let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, since_s t0)

(* Op latencies, stored flat (8 bytes a sample) so that a run's memory
   barely depends on how many ops it completed. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.0; len = 0 }

let add s x =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let values s = Array.sub s.data 0 s.len

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let mean xs =
  if xs = [||] then nan
  else Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile ([p] in percent) of a sorted array. *)
let rank_pct a p =
  let n = Array.length a in
  let r = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  a.(max 0 (min (n - 1) (r - 1)))

type tail = { pct : float; value : float; samples : int }

(* The highest of p99/p90/p75 that has at least ten samples above it —
   the tail a sample of this size can support.  When the sample is too
   small for any of them, the maximum (reported as p100).  p99.9 is left
   out: on a shared 2-core VM it measured host hiccups, and it moved by
   almost a third from run to run. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then { pct = nan; value = nan; samples = 0 }
  else
    let beyond p =
      n - int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))
    in
    match List.find_opt (fun p -> beyond p >= 10) [ 99.0; 90.0; 75.0 ] with
    | Some p -> { pct = p; value = rank_pct a p; samples = n }
    | None -> { pct = 100.0; value = a.(n - 1); samples = n }

(* Peak resident set size of this process ([VmHWM]), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
      in
      scan ())

let rec rm_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_tree (Filename.concat path f)) (Sys.readdir path);
    (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

(* Scratch space for one run: a fresh directory under the working
   directory (so a run touches nothing outside the checkout it runs
   in), removed when [f] returns or raises.  Paths stay relative, which
   also keeps Unix socket paths short. *)
let with_scratch_dir f =
  let root = ".perfbench" in
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  rm_tree dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      rm_tree dir;
      (* Leave no empty root behind; a concurrent run keeps it. *)
      try Sys.rmdir root with Sys_error _ -> ())
    (fun () -> f dir)
