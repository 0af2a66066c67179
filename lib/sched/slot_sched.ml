open Hcv_ir
open Hcv_machine

type failure = Budget_exhausted | Positive_cycle | Register_pressure

let failure_to_string = function
  | Budget_exhausted -> "scheduling budget exhausted"
  | Positive_cycle -> "recurrence cannot meet the initiation time"
  | Register_pressure -> "register lifetimes exceed the register files"

(* Early-exit iteration over CSR adjacency — the hot-path replacement
   for List.for_all over the legacy edge lists (same visit order). *)
exception False

let forall_preds ddg i f =
  match
    Ddg.iter_preds ddg i (fun e -> if not (f e) then raise_notrace False)
  with
  | () -> true
  | exception False -> false

let forall_succs ddg i f =
  match
    Ddg.iter_succs ddg i (fun e -> if not (f e) then raise_notrace False)
  with
  | () -> true
  | exception False -> false

(* Longest time-path from each node to any node (its "height"): the
   classical scheduling priority, here over time in ticks.  Returns
   None when a positive cycle exists (the IT is below what the
   partitioned recurrences need).  Edge weights (source latency at its
   cluster's effective cycle time minus the iterations the dependence
   spans) are precomputed once; the relaxation rounds then only add. *)
let heights memo ddg assignment =
  let n = Ddg.n_instrs ddg in
  let h =
    Array.init n (fun i ->
        Timing.Memo.def_offset memo ~cluster:assignment.(i) (Ddg.instr ddg i))
  in
  let edge_arr = Ddg.edge_array ddg in
  let weights =
    Array.map
      (fun (e : Edge.t) ->
        Timing.Memo.lat_offset memo ~cluster:assignment.(e.src)
          (Instr.fu (Ddg.instr ddg e.src))
          e.latency
        - (Timing.Memo.it memo * e.distance))
      edge_arr
  in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= n do
    changed := false;
    incr rounds;
    Array.iteri
      (fun k (e : Edge.t) ->
        let cand = weights.(k) + h.(e.dst) in
        if cand > h.(e.src) then begin
          h.(e.src) <- cand;
          changed := true
        end)
      edge_arr
  done;
  if !changed then None else Some h

type transfer_state = {
  mutable bus_cycle : int;
  mutable users : int;  (* placed consumers currently relying on it *)
}

type state = {
  machine : Machine.t;
  memo : Timing.Memo.t;
  loop : Loop.t;
  assignment : int array;
  buslat : int;
  mrt : Mrt.t;
  placed : bool array;
  cyc : int array;
  last_forced : int array;
  transfers : (int * int, transfer_state) Hashtbl.t;
      (* (producer, destination cluster) -> bus slot *)
}

let ddg st = st.loop.Loop.ddg
let instr st i = Ddg.instr (ddg st) i

(* Times are in the memo's integer ticks. *)
let it_mul st d = Timing.Memo.it st.memo * d

let start_of st i =
  Timing.Memo.start_time st.memo ~cluster:st.assignment.(i) ~cycle:st.cyc.(i)

(* Definition time of [src] under edge latency [lat]. *)
let def_of st src lat =
  start_of st src
  + Timing.Memo.lat_offset st.memo ~cluster:st.assignment.(src)
      (Instr.fu (instr st src))
      lat

let value_def st src =
  start_of st src
  + Timing.Memo.def_offset st.memo ~cluster:st.assignment.(src) (instr st src)

let sync_penalty st = Timing.Memo.icn_ct st.memo

(* ----- transfer management ------------------------------------- *)

let find_bus st ~earliest ~latest = Mrt.bus_first_free st.mrt ~earliest ~latest

(* Ensure the value of [src] reaches [dst_cluster] by [need].  Commits
   bus reservations; records an undo thunk in [undo].  The transfer's
   earliest slot depends only on [src]'s placement. *)
let serve_transfer st ~undo ~src ~dst_cluster ~need =
  let key = (src, dst_cluster) in
  let earliest =
    Timing.Memo.earliest_bus_cycle st.memo ~def_time:(value_def st src)
  in
  let latest = Timing.Memo.latest_bus_cycle st.memo ~buslat:st.buslat ~need in
  match Hashtbl.find_opt st.transfers key with
  | Some ts when ts.bus_cycle <= latest && ts.bus_cycle >= earliest ->
    ts.users <- ts.users + 1;
    undo := (fun () -> ts.users <- ts.users - 1) :: !undo;
    true
  | Some ts -> (
    (* Move the transfer; any slot in [earliest, latest] also serves
       the existing consumers (their needs were >= this window's start
       ... moving earlier only helps; moving later than the old slot
       could break them, so only move earlier). *)
    let latest = min latest (ts.bus_cycle - 1) in
    let b = find_bus st ~earliest ~latest in
    if b < 0 then false
    else begin
      let old = ts.bus_cycle in
      Mrt.bus_release st.mrt ~cycle:old;
      Mrt.bus_reserve st.mrt ~cycle:b;
      ts.bus_cycle <- b;
      ts.users <- ts.users + 1;
      undo :=
        (fun () ->
          ts.users <- ts.users - 1;
          Mrt.bus_release st.mrt ~cycle:b;
          Mrt.bus_reserve st.mrt ~cycle:old;
          ts.bus_cycle <- old)
        :: !undo;
      true
    end)
  | None ->
    let b = find_bus st ~earliest ~latest in
    if b < 0 then false
    else begin
      Mrt.bus_reserve st.mrt ~cycle:b;
      Hashtbl.replace st.transfers key { bus_cycle = b; users = 1 };
      undo :=
        (fun () ->
          Mrt.bus_release st.mrt ~cycle:b;
          Hashtbl.remove st.transfers key)
        :: !undo;
      true
    end

(* Remove all transfer involvement of instruction [i]. *)
let drop_transfers st i =
  (* As producer. *)
  let dead =
    Hashtbl.fold
      (fun ((src, _) as key) ts acc ->
        if src = i then (key, ts) :: acc else acc)
      st.transfers []
  in
  List.iter
    (fun (key, (ts : transfer_state)) ->
      Mrt.bus_release st.mrt ~cycle:ts.bus_cycle;
      Hashtbl.remove st.transfers key)
    dead;
  (* As consumer: release one use of each incoming cross-cluster value. *)
  let c = st.assignment.(i) in
  Ddg.iter_preds (ddg st) i (fun (e : Edge.t) ->
      if
        Edge.carries_value e && st.placed.(e.src)
        && st.assignment.(e.src) <> c
      then
        match Hashtbl.find_opt st.transfers (e.src, c) with
        | Some ts ->
          ts.users <- ts.users - 1;
          if ts.users <= 0 then begin
            Mrt.bus_release st.mrt ~cycle:ts.bus_cycle;
            Hashtbl.remove st.transfers (e.src, c)
          end
        | None -> ())

let unplace st i =
  assert st.placed.(i);
  st.placed.(i) <- false;
  Mrt.fu_release st.mrt ~cluster:st.assignment.(i)
    ~kind:(Instr.fu (instr st i))
    ~cycle:st.cyc.(i);
  drop_transfers st i

(* ----- constraint checks around a tentative placement ----------- *)

(* Earliest start time of [i] implied by its placed predecessors. *)
let ready_time st i =
  let c = st.assignment.(i) in
  Ddg.fold_preds (ddg st) i
    (fun acc (e : Edge.t) ->
      if not st.placed.(e.src) then acc
      else begin
        let def = def_of st e.src e.latency in
        let r =
          if st.assignment.(e.src) = c then def
          else if Edge.carries_value e then
            Timing.Memo.bus_arrival st.memo ~buslat:st.buslat
              ~bus_cycle:
                (Timing.Memo.earliest_bus_cycle st.memo
                   ~def_time:(value_def st e.src))
          else def + sync_penalty st
        in
        Int.max acc (r - it_mul st e.distance)
      end)
    0

(* Try to place [i] at cycle [k]; commits on success, rolls back on
   failure.  [check_succs] distinguishes the normal path (all placed
   neighbour constraints must hold) from forced placement (violating
   neighbours get evicted by the caller). *)
let try_place st i k =
  let c = st.assignment.(i) in
  let kind = Instr.fu (instr st i) in
  if not (Mrt.fu_available st.mrt ~cluster:c ~kind ~cycle:k) then false
  else begin
    let undo = ref [] in
    let prev_cyc = st.cyc.(i) in
    st.cyc.(i) <- k;
    st.placed.(i) <- true;
    let rollback () =
      List.iter (fun f -> f ()) !undo;
      st.placed.(i) <- false;
      st.cyc.(i) <- prev_cyc
    in
    let ok_preds =
      forall_preds (ddg st) i (fun (e : Edge.t) ->
          if not st.placed.(e.src) || e.src = i then true
          else begin
            let lhs = start_of st i + it_mul st e.distance in
            let def = def_of st e.src e.latency in
            if st.assignment.(e.src) = c then lhs >= def
            else if Edge.carries_value e then
              serve_transfer st ~undo ~src:e.src ~dst_cluster:c ~need:lhs
            else lhs >= def + sync_penalty st
          end)
    in
    let ok_succs =
      ok_preds
      && forall_succs (ddg st) i (fun (e : Edge.t) ->
             if not st.placed.(e.dst) || e.dst = i then true
             else begin
               let lhs = start_of st e.dst + it_mul st e.distance in
               let def = def_of st i e.latency in
               if st.assignment.(e.dst) = c then lhs >= def
               else if Edge.carries_value e then
                 serve_transfer st ~undo ~src:i
                   ~dst_cluster:st.assignment.(e.dst) ~need:lhs
               else lhs >= def + sync_penalty st
             end)
    in
    (* Self edges (i -> i): pure IT feasibility, checked in both lists
       above via the e.src = i / e.dst = i guards being skipped -- check
       them here explicitly. *)
    let ok_self =
      ok_succs
      && forall_succs (ddg st) i (fun (e : Edge.t) ->
             e.dst <> i
             || start_of st i + it_mul st e.distance >= def_of st i e.latency)
    in
    if ok_self then begin
      Mrt.fu_reserve st.mrt ~cluster:c ~kind ~cycle:k;
      true
    end
    else begin
      rollback ();
      false
    end
  end

(* Forced placement at [k]: evict whatever stands in the way, place
   unconditionally.  Returns evicted instructions. *)
let force_place st i k =
  let c = st.assignment.(i) in
  let kind = Instr.fu (instr st i) in
  let evicted = ref [] in
  let evict j =
    if st.placed.(j) && j <> i then begin
      unplace st j;
      evicted := j :: !evicted
    end
  in
  (* Resource conflicts: occupants of the same modulo slot. *)
  let ii = (Timing.Memo.clocking st.memo).Clocking.cluster_ii.(c) in
  while not (Mrt.fu_available st.mrt ~cluster:c ~kind ~cycle:k) do
    (* Find a placed occupant of this (cluster, kind, slot). *)
    let slot = k mod ii in
    let victim = ref (-1) in
    Array.iteri
      (fun j p ->
        if
          !victim = -1 && p && j <> i
          && st.assignment.(j) = c
          && Instr.fu (instr st j) = kind
          && st.cyc.(j) mod ii = slot
        then victim := j)
      st.placed;
    if !victim = -1 then
      (* No placed occupant (capacity 0): nothing can free the slot.
         This only happens when the partition put an op on a cluster
         with no unit of that kind -- treat as impossible and let the
         caller's budget run out quickly. *)
      raise Exit
    else evict !victim
  done;
  st.cyc.(i) <- k;
  st.placed.(i) <- true;
  Mrt.fu_reserve st.mrt ~cluster:c ~kind ~cycle:k;
  (* Evict any placed neighbour whose constraint the forced placement
     breaks (or whose transfer cannot be scheduled). *)
  let check_edge (e : Edge.t) =
    if st.placed.(e.src) && st.placed.(e.dst) then begin
      let lhs = start_of st e.dst + it_mul st e.distance in
      let def = def_of st e.src e.latency in
      let other = if e.src = i then e.dst else e.src in
      if e.src = e.dst then begin
        if lhs < def then (* self recurrence broken: unfixable here *)
          ()
      end
      else if st.assignment.(e.src) = st.assignment.(e.dst) then begin
        if lhs < def then evict other
      end
      else if Edge.carries_value e then begin
        let undo = ref [] in
        if
          not
            (serve_transfer st ~undo ~src:e.src
               ~dst_cluster:st.assignment.(e.dst) ~need:lhs)
        then evict other
      end
      else if lhs < def + sync_penalty st then evict other
    end
  in
  Ddg.iter_preds (ddg st) i check_edge;
  Ddg.iter_succs (ddg st) i check_edge;
  !evicted

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Recompute the full transfer set from the final placements: one bus
   transfer per (producer, destination cluster), scheduled earliest-
   deadline-first.  Clears whatever the incremental bookkeeping left. *)
let rebuild_transfers st =
  Hashtbl.iter
    (fun _ (ts : transfer_state) -> Mrt.bus_release st.mrt ~cycle:ts.bus_cycle)
    st.transfers;
  Hashtbl.reset st.transfers;
  (* Collect the tightest deadline per (src, dst cluster). *)
  let needs : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun (e : Edge.t) ->
      if Edge.carries_value e && st.assignment.(e.src) <> st.assignment.(e.dst)
      then begin
        let key = (e.src, st.assignment.(e.dst)) in
        let lhs = start_of st e.dst + it_mul st e.distance in
        match Hashtbl.find_opt needs key with
        | Some prev when prev <= lhs -> ()
        | Some _ | None -> Hashtbl.replace needs key lhs
      end)
    (Ddg.edge_array (ddg st));
  let ordered =
    Hashtbl.fold (fun key need acc -> (need, key) :: acc) needs []
    |> List.sort (fun (a, ka) (b, kb) ->
           match Int.compare a b with 0 -> Stdlib.compare ka kb | c -> c)
  in
  let ok =
    List.for_all
      (fun (need, ((src, _dst_cluster) as key)) ->
        let earliest =
          Timing.Memo.earliest_bus_cycle st.memo ~def_time:(value_def st src)
        in
        let latest =
          Timing.Memo.latest_bus_cycle st.memo ~buslat:st.buslat ~need
        in
        let b = find_bus st ~earliest ~latest in
        b >= 0
        && begin
             Mrt.bus_reserve st.mrt ~cycle:b;
             Hashtbl.replace st.transfers key { bus_cycle = b; users = 1 };
             true
           end)
      ordered
  in
  if ok then Ok () else Error ()

let run ~memo ~machine ~loop ~assignment ?(budget_factor = 16) () =
  let ddg_ = loop.Loop.ddg in
  let n = Ddg.n_instrs ddg_ in
  if Array.length assignment <> n then
    invalid_arg "Slot_sched.run: assignment arity mismatch";
  let clocking = Timing.Memo.clocking memo in
  match heights memo ddg_ assignment with
  | None -> Error Positive_cycle
  | Some h ->
    let st =
      {
        machine;
        memo;
        loop;
        assignment;
        buslat = machine.Machine.icn.Icn.latency_cycles;
        mrt = Mrt.create machine clocking;
        placed = Array.make n false;
        cyc = Array.make n 0;
        last_forced = Array.make n (-1);
        transfers = Hashtbl.create 16;
      }
    in
    let budget = ref (budget_factor * max n 1) in
    let next_unplaced () =
      let best = ref (-1) in
      for i = n - 1 downto 0 do
        if not st.placed.(i) then
          if !best = -1 || h.(i) > h.(!best) then best := i
      done;
      !best
    in
    let rec loop_sched () =
      let i = next_unplaced () in
      if i = -1 then Ok ()
      else if !budget <= 0 then Error Budget_exhausted
      else begin
        decr budget;
        let c = st.assignment.(i) in
        let ii = clocking.Clocking.cluster_ii.(c) in
        let e0 =
          Timing.Memo.earliest_cycle st.memo ~cluster:c ~ready:(ready_time st i)
        in
        let rec try_k k remaining =
          if remaining = 0 then false
          else if try_place st i k then true
          else try_k (k + 1) (remaining - 1)
        in
        if try_k e0 (max ii 1) then loop_sched ()
        else begin
          let kf = max e0 (st.last_forced.(i) + 1) in
          st.last_forced.(i) <- kf;
          match force_place st i kf with
          | _evicted -> loop_sched ()
          | exception Exit -> Error Budget_exhausted
        end
      end
    in
    (match loop_sched () with
    | Error e -> Error e
    | Ok () -> (
      (* The incremental transfer bookkeeping above is a heuristic
         capacity pressure; rebuild the transfer set from scratch so the
         final schedule is exactly consistent with the placements. *)
      match rebuild_transfers st with
      | Error () -> Error Budget_exhausted
      | Ok () ->
        let placements =
          Array.init n (fun i ->
              { Schedule.cluster = st.assignment.(i); cycle = st.cyc.(i) })
        in
        let transfers =
          Hashtbl.fold
            (fun (src, dst_cluster) ts acc ->
              { Schedule.src; dst_cluster; bus_cycle = ts.bus_cycle } :: acc)
            st.transfers []
          |> List.sort Stdlib.compare
        in
        let sched =
          Schedule.make ~loop ~machine ~clocking ~placements ~transfers
        in
        (match Schedule.validate sched with
        | Ok () -> Ok sched
        | Error errs ->
          if
            List.for_all
              (fun m -> contains_substring m "register pressure")
              errs
          then Error Register_pressure
          else
            invalid_arg
              (Printf.sprintf "Slot_sched.run: internal error: %s"
                 (String.concat "; " errs)))))
