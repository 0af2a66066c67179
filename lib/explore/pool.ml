type t = {
  n_jobs : int;
  q : (unit -> unit) Workq.t;
  domains : unit Domain.t array;
  mutable down : bool;
}

(* Set in every worker domain so that a nested [map] (a sweep issued
   from inside a task) runs inline instead of re-entering the queue —
   re-entering could deadlock with every worker blocked on subtasks
   that only workers can run. *)
let in_worker = Domain.DLS.new_key (fun () -> false)

let create ?(jobs = 1) () =
  let n_jobs = max 1 jobs in
  let q = Workq.create () in
  let domains =
    if n_jobs = 1 then [||]
    else
      Array.init n_jobs (fun _ ->
          Domain.spawn (fun () ->
              Domain.DLS.set in_worker true;
              let rec loop () =
                match Workq.pop q with
                | Some task ->
                  task ();
                  loop ()
                | None -> ()
              in
              loop ()))
  in
  { n_jobs; q; domains; down = false }

let jobs t = t.n_jobs

let map_outcome t f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  if n = 0 then []
  else if
    Array.length t.domains = 0 || t.down || Domain.DLS.get in_worker || n = 1
  then
    List.map
      (fun x ->
        match f x with
        | v -> Ok v
        | exception e -> Error (e, Printexc.get_raw_backtrace ()))
      xs
  else begin
    let results = Array.make n None in
    let mutex = Mutex.create () in
    let finished = Condition.create () in
    let remaining = ref n in
    Array.iteri
      (fun i x ->
        Workq.push t.q (fun () ->
            (match f x with
            | v -> results.(i) <- Some (Ok v)
            | exception e ->
              results.(i) <- Some (Error (e, Printexc.get_raw_backtrace ())));
            Mutex.lock mutex;
            decr remaining;
            if !remaining = 0 then Condition.signal finished;
            Mutex.unlock mutex))
      items;
    Mutex.lock mutex;
    while !remaining > 0 do
      Condition.wait finished mutex
    done;
    Mutex.unlock mutex;
    List.init n (fun i ->
        match results.(i) with Some r -> r | None -> assert false)
  end

let map t f xs =
  let outcomes = map_outcome t f xs in
  (* The serial run would have hit the lowest-indexed failure first;
     report that one. *)
  List.iter
    (function
      | Error (e, bt) -> Printexc.raise_with_backtrace e bt
      | Ok _ -> ())
    outcomes;
  List.map (function Ok v -> v | Error _ -> assert false) outcomes

let shutdown t =
  if not t.down then begin
    t.down <- true;
    Workq.close t.q;
    Array.iter Domain.join t.domains
  end
