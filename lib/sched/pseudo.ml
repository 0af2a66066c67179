open Hcv_support
open Hcv_ir
open Hcv_machine

type t = {
  schedule : Schedule.t;
  overflow : int;
  back_violations : int;
  regs_ok : bool;
  n_comms : int;
  it_length : Q.t;
}

let feasible t = t.overflow = 0 && t.back_violations = 0 && t.regs_ok

exception False

let estimate ~memo ?(obs = Hcv_obs.Trace.null) ~machine ~loop ~assignment () =
  let clocking = Timing.Memo.clocking memo in
  let ddg = loop.Loop.ddg in
  let n = Ddg.n_instrs ddg in
  (* Invariant: callers build the assignment from this DDG (caller bug,
     not an input condition). *)
  if Array.length assignment <> n then
    invalid_arg "Pseudo.estimate: assignment arity mismatch";
  (* Every time below is in the memo's integer ticks. *)
  let it = Timing.Memo.it memo in
  let buslat = machine.Machine.icn.Icn.latency_cycles in
  let mrt = Mrt.create machine clocking in
  let cyc = Array.make n 0 in
  let placed = Array.make n false in
  let overflow = ref 0 in
  let n_clusters = Machine.n_clusters machine in
  (* One transfer per (producer, destination cluster), in dense arrays
     keyed by [src * n_clusters + dst].  [tr_arrival] caches the
     arrival time of the reserved slot: the serve fast path is then a
     single comparison ([arrival <= need] iff [slot <= latest]). *)
  let tr_slot = Array.make (n * n_clusters) (-1) in
  let tr_arrival = Array.make (n * n_clusters) 0 in
  let tr_keys = ref [] in
  (* Start, value-definition time and earliest bus cycle of every placed
     instruction, filled in when its cycle is committed: each is read
     once per incident edge per candidate cycle. *)
  let starts = Array.make n 0 in
  let defs = Array.make n 0 in
  let ebus = Array.make n 0 in
  (* Per-source resume cache for failed bus searches.  A search for
     src's value always starts at the fixed cycle [ebus.(src)], and bus
     occupancy only grows between releases, so once [ebus.(src) ..
     full_upto.(src)] is known fully booked a later search over the
     same prefix can skip it — O(total window width) scanning per
     source instead of O(candidates x width).  Any bus release bumps
     [bus_epoch], conservatively invalidating every cache.
     [full_bound] is the arrival of a departure at [full_upto + 1]:
     [latest <= full_upto] iff [need < full_bound], so the known-full
     reject is a single comparison with no division. *)
  let bus_epoch = ref 0 in
  let scan_epoch = Array.make n (-1) in
  let full_upto = Array.make n min_int in
  let full_bound = Array.make n 0 in
  let set_full_upto src upto =
    scan_epoch.(src) <- !bus_epoch;
    full_upto.(src) <- upto;
    full_bound.(src) <-
      Timing.Memo.bus_arrival memo ~buslat ~bus_cycle:(upto + 1)
  in
  let def_of_edge (e : Edge.t) =
    (* Source definition time under the edge's latency. *)
    starts.(e.src)
    + Timing.Memo.lat_offset memo ~cluster:assignment.(e.src)
        (Instr.fu (Ddg.instr ddg e.src))
        e.latency
  in
  (* Plan (without committing) a bus slot in [earliest, latest]; prefer
     the earliest free cycle. *)
  let find_bus ~earliest ~latest = Mrt.bus_first_free mrt ~earliest ~latest in
  (* Set when a pred could not be served because every bus modulo slot
     is full and it needs a brand-new transfer.  The bus table cannot
     change while the current instruction keeps probing later cycles
     (creating needs a free slot, and moving first finds one), so no
     candidate cycle can ever serve that pred — the placement loop can
     jump straight to the overflow outcome it would otherwise reach by
     exhausting its tries. *)
  let serve_blocked = ref false in
  (* Serve a cross-cluster value edge for a consumer starting at [need]:
     reuse (or advance) the transfer, or create one.  Returns false when
     no bus slot can make the delivery. *)
  let serve_transfer ~src ~dst_cluster ~need =
    let key = (src * n_clusters) + dst_cluster in
    let b = tr_slot.(key) in
    if b >= 0 && tr_arrival.(key) <= need then true
    else if Mrt.bus_slots_free mrt = 0 then begin
      (* Every modulo slot is full, so the window scan below cannot
         succeed whatever the window is. *)
      if b < 0 then serve_blocked := true;
      false
    end
    else if scan_epoch.(src) = !bus_epoch && need < full_bound.(src)
    then false (* the whole [ebus.(src), latest] window is known full *)
    else begin
      (* No transfer yet, or the existing one arrives too late for this
         consumer; find a slot that delivers in time (moving a transfer
         earlier is always safe for already-served consumers). *)
      let latest = Timing.Memo.latest_bus_cycle memo ~buslat ~need in
      let from =
        if scan_epoch.(src) = !bus_epoch then
          Int.max ebus.(src) (full_upto.(src) + 1)
        else ebus.(src)
      in
      match find_bus ~earliest:from ~latest with
      | Some b' ->
        set_full_upto src (b' - 1);
        if b >= 0 then begin
          Mrt.bus_release mrt ~cycle:b;
          incr bus_epoch
        end
        else tr_keys := (src, dst_cluster) :: !tr_keys;
        Mrt.bus_reserve mrt ~cycle:b';
        tr_slot.(key) <- b';
        tr_arrival.(key) <- Timing.Memo.bus_arrival memo ~buslat ~bus_cycle:b';
        true
      | None ->
        set_full_upto src latest;
        false
    end
  in
  (* Greedy placement in topological order of the acyclic subgraph. *)
  List.iter
    (fun i ->
      let c = assignment.(i) in
      let ins = Ddg.instr ddg i in
      let kind = Instr.fu ins in
      let ii = clocking.Clocking.cluster_ii.(c) in
      let ready =
        Ddg.fold_preds ddg i
          (fun acc (e : Edge.t) ->
            if not placed.(e.src) then acc
            else begin
              let r =
                if assignment.(e.src) = c then def_of_edge e
                else if Edge.carries_value e then
                  (* Earliest conceivable arrival through the bus. *)
                  let bus_cycle =
                    if e.latency = Instr.latency (Ddg.instr ddg e.src) then
                      ebus.(e.src)
                    else
                      Timing.Memo.earliest_bus_cycle memo
                        ~def_time:(def_of_edge e)
                  in
                  Timing.Memo.bus_arrival memo ~buslat ~bus_cycle
                else def_of_edge e + Timing.Memo.icn_ct memo
              in
              Int.max acc (r - (it * e.distance))
            end)
          0
      in
      let e0 = Timing.Memo.earliest_cycle memo ~cluster:c ~ready in
      let try_cycle k =
        serve_blocked := false;
        if not (Mrt.fu_available mrt ~cluster:c ~kind ~cycle:k) then false
        else begin
          (* Tentatively adopt cycle k to compute consumer needs. *)
          let prev = cyc.(i) in
          cyc.(i) <- k;
          let start_i = Timing.Memo.start_time memo ~cluster:c ~cycle:k in
          let ok =
            match
              Ddg.iter_preds ddg i (fun (e : Edge.t) ->
                  let served =
                    (not placed.(e.src))
                    || assignment.(e.src) = c
                    || (not (Edge.carries_value e))
                    ||
                    let need = start_i + (it * e.distance) in
                    serve_transfer ~src:e.src ~dst_cluster:c ~need
                  in
                  if not served then raise_notrace False)
            with
            | () -> true
            | exception False -> false
          in
          if not ok then cyc.(i) <- prev;
          ok
        end
      in
      let overbook () =
        (* Overbook at the dependence-ready cycle. *)
        incr overflow;
        cyc.(i) <- e0
      in
      let rec place k tries =
        if tries = 0 then overbook ()
        else if try_cycle k then Mrt.fu_reserve mrt ~cluster:c ~kind ~cycle:k
        else if !serve_blocked then
          (* A pred needs a new transfer on a saturated bus; no later
             cycle can change that, so the try loop would fail them
             all and overbook anyway. *)
          overbook ()
        else place (k + 1) (tries - 1)
      in
      if Mrt.fu_slots_free mrt ~cluster:c ~kind = 0 then
        (* Every modulo slot of this FU row is full: [try_cycle] fails
           its availability check at every candidate, so skip straight
           to the identical overbooked outcome. *)
        overbook ()
      else place e0 (max ii 1);
      starts.(i) <- Timing.Memo.start_time memo ~cluster:c ~cycle:cyc.(i);
      defs.(i) <- starts.(i) + Timing.Memo.def_offset memo ~cluster:c ins;
      ebus.(i) <- Timing.Memo.earliest_bus_cycle memo ~def_time:defs.(i);
      placed.(i) <- true)
    (Ddg.topo_order ddg);
  (* Loop-carried dependences: check, and reserve buses for the value
     transfers the greedy forward pass did not see. *)
  let back_violations = ref 0 in
  Array.iter
    (fun (e : Edge.t) ->
      if e.distance > 0 then begin
        let lhs = starts.(e.dst) + (it * e.distance) in
        let def = def_of_edge e in
        if assignment.(e.src) = assignment.(e.dst) then begin
          if lhs < def then incr back_violations
        end
        else if Edge.carries_value e then begin
          if not (serve_transfer ~src:e.src ~dst_cluster:assignment.(e.dst) ~need:lhs)
          then incr back_violations
        end
        else if lhs < def + Timing.Memo.icn_ct memo then incr back_violations
      end)
    (Ddg.edge_array ddg);
  let placements =
    Array.init n (fun i ->
        { Schedule.cluster = assignment.(i); cycle = cyc.(i) })
  in
  let transfer_list =
    List.map
      (fun (src, dst_cluster) ->
        {
          Schedule.src;
          dst_cluster;
          bus_cycle = tr_slot.((src * n_clusters) + dst_cluster);
        })
      !tr_keys
    |> List.sort Stdlib.compare
  in
  let schedule =
    Schedule.make ~loop ~machine ~clocking ~placements ~transfers:transfer_list
  in
  (* Score ingredients, from the arrays the placement pass already
     filled ([defs.(i)] is [Schedule.def_time] in ticks, [tr_arrival]
     every transfer's arrival): no re-derivation from the placements. *)
  let n_comms = List.length !tr_keys in
  let it_length =
    let len = ref 0 in
    Array.iter (fun d -> len := Int.max !len d) defs;
    List.iter
      (fun (src, dst_cluster) ->
        len := Int.max !len tr_arrival.((src * n_clusters) + dst_cluster))
      !tr_keys;
    Timing.Memo.to_ns memo !len
  in
  let regs_ok =
    let spans = Array.make n_clusters 0 in
    (* Latest bus send per producer: max cycle <=> max send time. *)
    let tr_last = Array.make (max n 1) min_int in
    List.iter
      (fun (src, dst_cluster) ->
        let b = tr_slot.((src * n_clusters) + dst_cluster) in
        if b > tr_last.(src) then tr_last.(src) <- b)
      !tr_keys;
    for i = 0 to n - 1 do
      let c = assignment.(i) in
      let birth = defs.(i) in
      let death =
        ref
          (Ddg.fold_succs ddg i
             (fun death (e : Edge.t) ->
               if Edge.carries_value e && assignment.(e.dst) = c then
                 Int.max death (starts.(e.dst) + (it * e.distance))
               else death)
             birth)
      in
      if tr_last.(i) > min_int then
        death := Int.max !death (Timing.Memo.icn_ct memo * tr_last.(i));
      spans.(c) <- spans.(c) + (!death - birth)
    done;
    (* Destination-side spans: bus arrival to last read there. *)
    List.iter
      (fun (src, dst_cluster) ->
        let birth = tr_arrival.((src * n_clusters) + dst_cluster) in
        let death =
          Ddg.fold_succs ddg src
            (fun death (e : Edge.t) ->
              if Edge.carries_value e && assignment.(e.dst) = dst_cluster then
                Int.max death (starts.(e.dst) + (it * e.distance))
              else death)
            birth
        in
        spans.(dst_cluster) <- spans.(dst_cluster) + (death - birth))
      !tr_keys;
    let ok = ref true in
    Array.iteri
      (fun ci (cl : Cluster.t) ->
        if spans.(ci) > it * cl.Cluster.registers then ok := false)
      machine.Machine.clusters;
    !ok
  in
  let t =
    { schedule; overflow = !overflow; back_violations = !back_violations;
      regs_ok; n_comms; it_length }
  in
  Hcv_obs.Trace.incr obs "pseudo.evals";
  if not (feasible t) then Hcv_obs.Trace.incr obs "pseudo.infeasible";
  t

let score t =
  (float_of_int t.overflow *. 1e12)
  +. (float_of_int t.back_violations *. 1e9)
  +. (if t.regs_ok then 0.0 else 1e7)
  +. (float_of_int t.n_comms *. 100.0)
  +. Q.to_float t.it_length
