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

(* The one schedulability formula, for an estimate and a workspace
   alike. *)
let score_of ~overflow ~back_violations ~regs_ok ~n_comms it_length_ns =
  (float_of_int overflow *. 1e12)
  +. (float_of_int back_violations *. 1e9)
  +. (if regs_ok then 0.0 else 1e7)
  +. (float_of_int n_comms *. 100.0)
  +. it_length_ns

let score t =
  score_of ~overflow:t.overflow ~back_violations:t.back_violations
    ~regs_ok:t.regs_ok ~n_comms:t.n_comms (Q.to_float t.it_length)

module Workspace = struct
  type estimate = t

  (* Every time below is in the memo's integer ticks.  The first block
     is fixed for the workspace's life (one clocking, one loop); the
     second is overwritten by each evaluation; the last holds the
     evaluation's outcome. *)
  type t = {
    memo : Timing.Memo.t;
    obs : Hcv_obs.Trace.span;
    machine : Machine.t;
    loop : Loop.t;
    n : int;
    n_clusters : int;
    it : int;
    cluster_ii : int array;
    buslat : int;
    icn_ct : int;
    edges : Edge.t array;
    succ_off : int array;
    succ_idx : int array;
    pred_off : int array;
    pred_idx : int array;
    topo : int array;
    kinds : Opcode.fu_kind array;  (* per instruction *)
    lats : int array;  (* per instruction: its own latency *)
    mrt : Mrt.t;
    assign : int array;  (* a copy of the assignment being evaluated *)
    cyc : int array;
    placed : bool array;
    (* Start, value-definition time and earliest bus cycle of every
       placed instruction, filled in when its cycle is committed: each
       is read once per incident edge per candidate cycle. *)
    starts : int array;
    defs : int array;
    ebus : int array;
    (* One transfer per (producer, destination cluster), keyed by
       [src * n_clusters + dst].  [tr_arrival] caches the arrival time
       of the reserved slot: the serve fast path is then a single
       comparison ([arrival <= need] iff [slot <= latest]).  The keys
       in use are the first [n_tr] entries of [tr_keys]; a slot is
       [-1] for every other key, which the reset restores from that
       stack alone. *)
    tr_slot : int array;
    tr_arrival : int array;
    tr_keys : int array;
    mutable n_tr : int;
    (* Per-source resume cache for failed bus searches.  A search for
       src's value always starts at the fixed cycle [ebus.(src)], and
       bus occupancy only grows between releases, so once [ebus.(src)
       .. full_upto.(src)] is known fully booked a later search over
       the same prefix can skip it — O(total window width) scanning per
       source instead of O(candidates x width).  Any bus release, and
       every new evaluation, bumps [bus_epoch], invalidating every
       entry stamped before.  [full_bound] is the arrival of a
       departure at [full_upto + 1]: [latest <= full_upto] iff [need <
       full_bound], so the known-full reject is a single comparison
       with no division. *)
    mutable bus_epoch : int;
    scan_epoch : int array;
    full_upto : int array;
    full_bound : int array;
    (* Set when a pred could not be served because every bus modulo
       slot is full and it needs a brand-new transfer.  The bus table
       cannot change while the current instruction keeps probing later
       cycles (creating needs a free slot, and moving first finds one),
       so no candidate cycle can ever serve that pred — the placement
       loop can jump straight to the overflow outcome it would
       otherwise reach by exhausting its tries. *)
    mutable serve_blocked : bool;
    spans : int array;  (* per cluster: summed lifetimes *)
    tr_last : int array;  (* per producer: latest bus send *)
    mutable overflow : int;
    mutable back_violations : int;
    mutable regs_ok : bool;
    mutable len : int;  (* iteration length *)
  }

  let create ~memo ~obs ~machine ~loop =
    let ddg = loop.Loop.ddg in
    let n = Ddg.n_instrs ddg in
    let n_clusters = Machine.n_clusters machine in
    let instrs = Ddg.instrs ddg in
    {
      memo;
      obs;
      machine;
      loop;
      n;
      n_clusters;
      it = Timing.Memo.it memo;
      cluster_ii = (Timing.Memo.clocking memo).Clocking.cluster_ii;
      buslat = machine.Machine.icn.Icn.latency_cycles;
      icn_ct = Timing.Memo.icn_ct memo;
      edges = Ddg.edge_array ddg;
      succ_off = Ddg.succ_offsets ddg;
      succ_idx = Ddg.succ_index ddg;
      pred_off = Ddg.pred_offsets ddg;
      pred_idx = Ddg.pred_index ddg;
      topo = Array.of_list (Ddg.topo_order ddg);
      kinds = Array.map Instr.fu instrs;
      lats = Array.map Instr.latency instrs;
      mrt = Mrt.create machine (Timing.Memo.clocking memo);
      assign = Array.make n 0;
      cyc = Array.make n 0;
      placed = Array.make n false;
      starts = Array.make n 0;
      defs = Array.make n 0;
      ebus = Array.make n 0;
      tr_slot = Array.make (n * n_clusters) (-1);
      tr_arrival = Array.make (n * n_clusters) 0;
      tr_keys = Array.make (n * n_clusters) 0;
      n_tr = 0;
      bus_epoch = 0;
      scan_epoch = Array.make n (-1);
      full_upto = Array.make n min_int;
      full_bound = Array.make n 0;
      serve_blocked = false;
      spans = Array.make n_clusters 0;
      tr_last = Array.make n min_int;
      overflow = 0;
      back_violations = 0;
      regs_ok = true;
      len = 0;
    }

  (* Source definition time under the edge's latency. *)
  let def_of_edge ws (e : Edge.t) =
    ws.starts.(e.src)
    + Timing.Memo.lat_offset ws.memo ~cluster:ws.assign.(e.src)
        ws.kinds.(e.src) e.latency

  let set_full_upto ws src upto =
    ws.scan_epoch.(src) <- ws.bus_epoch;
    ws.full_upto.(src) <- upto;
    ws.full_bound.(src) <-
      Timing.Memo.bus_arrival ws.memo ~buslat:ws.buslat ~bus_cycle:(upto + 1)

  (* Serve a cross-cluster value edge for a consumer starting at
     [need]: reuse (or advance) the transfer, or create one.  Returns
     false when no bus slot can make the delivery. *)
  let serve_transfer ws ~src ~dst_cluster ~need =
    let key = (src * ws.n_clusters) + dst_cluster in
    let b = ws.tr_slot.(key) in
    if b >= 0 && ws.tr_arrival.(key) <= need then true
    else if Mrt.bus_slots_free ws.mrt = 0 then begin
      (* Every modulo slot is full, so the window scan below cannot
         succeed whatever the window is. *)
      if b < 0 then ws.serve_blocked <- true;
      false
    end
    else if ws.scan_epoch.(src) = ws.bus_epoch && need < ws.full_bound.(src)
    then false (* the whole [ebus.(src), latest] window is known full *)
    else begin
      (* No transfer yet, or the existing one arrives too late for this
         consumer; find a slot that delivers in time (moving a transfer
         earlier is always safe for already-served consumers). *)
      let latest =
        Timing.Memo.latest_bus_cycle ws.memo ~buslat:ws.buslat ~need
      in
      let from =
        if ws.scan_epoch.(src) = ws.bus_epoch then
          Int.max ws.ebus.(src) (ws.full_upto.(src) + 1)
        else ws.ebus.(src)
      in
      let b' = Mrt.bus_first_free ws.mrt ~earliest:from ~latest in
      if b' < 0 then begin
        set_full_upto ws src latest;
        false
      end
      else begin
        set_full_upto ws src (b' - 1);
        if b >= 0 then begin
          Mrt.bus_release ws.mrt ~cycle:b;
          ws.bus_epoch <- ws.bus_epoch + 1
        end
        else begin
          ws.tr_keys.(ws.n_tr) <- key;
          ws.n_tr <- ws.n_tr + 1
        end;
        Mrt.bus_reserve ws.mrt ~cycle:b';
        ws.tr_slot.(key) <- b';
        ws.tr_arrival.(key) <-
          Timing.Memo.bus_arrival ws.memo ~buslat:ws.buslat ~bus_cycle:b';
        true
      end
    end

  (* Earliest dependence-ready time of [i] on cluster [c], over its
     placed predecessors. *)
  let ready_time ws i c =
    let ready = ref 0 in
    for k = ws.pred_off.(i) to ws.pred_off.(i + 1) - 1 do
      let e = ws.edges.(ws.pred_idx.(k)) in
      if ws.placed.(e.src) then begin
        let r =
          if ws.assign.(e.src) = c then def_of_edge ws e
          else if Edge.carries_value e then
            (* Earliest conceivable arrival through the bus. *)
            let bus_cycle =
              if e.latency = ws.lats.(e.src) then ws.ebus.(e.src)
              else
                Timing.Memo.earliest_bus_cycle ws.memo
                  ~def_time:(def_of_edge ws e)
            in
            Timing.Memo.bus_arrival ws.memo ~buslat:ws.buslat ~bus_cycle
          else def_of_edge ws e + ws.icn_ct
        in
        ready := Int.max !ready (r - (ws.it * e.distance))
      end
    done;
    !ready

  (* Can [i] issue at cycle [k] of cluster [c], with every cross-cluster
     value it reads delivered in time?  Serving a value may reserve or
     move bus slots, as the greedy pass always has. *)
  let try_cycle ws i c kind k =
    ws.serve_blocked <- false;
    Mrt.fu_available ws.mrt ~cluster:c ~kind ~cycle:k
    && begin
         let start_i = Timing.Memo.start_time ws.memo ~cluster:c ~cycle:k in
         let ok = ref true in
         let p = ref ws.pred_off.(i) in
         let stop = ws.pred_off.(i + 1) in
         while !ok && !p < stop do
           let e = ws.edges.(ws.pred_idx.(!p)) in
           if ws.placed.(e.src) && ws.assign.(e.src) <> c
              && Edge.carries_value e
           then
             ok :=
               serve_transfer ws ~src:e.src ~dst_cluster:c
                 ~need:(start_i + (ws.it * e.distance));
           incr p
         done;
         !ok
       end

  (* Place [i] at the first of [II] candidate cycles from its ready
     cycle that fits, or overbook it at the ready cycle. *)
  let place ws i =
    let c = ws.assign.(i) in
    let kind = ws.kinds.(i) in
    let e0 =
      Timing.Memo.earliest_cycle ws.memo ~cluster:c ~ready:(ready_time ws i c)
    in
    let at = ref (-1) in
    (* With every modulo slot of this FU row full, [try_cycle] fails its
       availability check at every candidate: skip straight to the
       identical overbooked outcome. *)
    if Mrt.fu_slots_free ws.mrt ~cluster:c ~kind > 0 then begin
      let k = ref e0 in
      let tries = ref (Int.max ws.cluster_ii.(c) 1) in
      while !at < 0 && !tries > 0 do
        if try_cycle ws i c kind !k then at := !k
        else if ws.serve_blocked then
          (* A pred needs a new transfer on a saturated bus; no later
             cycle can change that, so every try would fail. *)
          tries := 0
        else begin
          incr k;
          decr tries
        end
      done
    end;
    if !at >= 0 then begin
      Mrt.fu_reserve ws.mrt ~cluster:c ~kind ~cycle:!at;
      ws.cyc.(i) <- !at
    end
    else begin
      ws.overflow <- ws.overflow + 1;
      ws.cyc.(i) <- e0
    end;
    ws.starts.(i) <-
      Timing.Memo.start_time ws.memo ~cluster:c ~cycle:ws.cyc.(i);
    ws.defs.(i) <-
      ws.starts.(i)
      + Timing.Memo.lat_offset ws.memo ~cluster:c kind ws.lats.(i);
    ws.ebus.(i) <- Timing.Memo.earliest_bus_cycle ws.memo ~def_time:ws.defs.(i);
    ws.placed.(i) <- true

  (* Loop-carried dependences: check, and reserve buses for the value
     transfers the greedy forward pass did not see. *)
  let check_back_edges ws =
    for j = 0 to Array.length ws.edges - 1 do
      let e = ws.edges.(j) in
      if e.distance > 0 then begin
        let lhs = ws.starts.(e.dst) + (ws.it * e.distance) in
        let def = def_of_edge ws e in
        let broken =
          if ws.assign.(e.src) = ws.assign.(e.dst) then lhs < def
          else if Edge.carries_value e then
            not
              (serve_transfer ws ~src:e.src ~dst_cluster:ws.assign.(e.dst)
                 ~need:lhs)
          else lhs < def + ws.icn_ct
        in
        if broken then ws.back_violations <- ws.back_violations + 1
      end
    done

  (* Last read of [src]'s value in [cluster], from [birth] on. *)
  let last_read ws src cluster birth =
    let death = ref birth in
    for k = ws.succ_off.(src) to ws.succ_off.(src + 1) - 1 do
      let e = ws.edges.(ws.succ_idx.(k)) in
      if Edge.carries_value e && ws.assign.(e.dst) = cluster then
        death := Int.max !death (ws.starts.(e.dst) + (ws.it * e.distance))
    done;
    !death

  (* Score ingredients, from the arrays the placement pass filled
     ([defs.(i)] is [Schedule.def_time] in ticks, [tr_arrival] every
     transfer's arrival): no re-derivation from placements. *)
  let summarise ws =
    let len = ref 0 in
    for i = 0 to ws.n - 1 do
      len := Int.max !len ws.defs.(i)
    done;
    for j = 0 to ws.n_tr - 1 do
      len := Int.max !len ws.tr_arrival.(ws.tr_keys.(j))
    done;
    ws.len <- !len;
    (* Register pressure: a value lives in its producer's cluster from
       definition to last local read or latest bus send (max cycle <=>
       max send time), and in each destination from bus arrival to last
       read there. *)
    Array.fill ws.spans 0 ws.n_clusters 0;
    Array.fill ws.tr_last 0 ws.n min_int;
    for j = 0 to ws.n_tr - 1 do
      let key = ws.tr_keys.(j) in
      let src = key / ws.n_clusters in
      let b = ws.tr_slot.(key) in
      if b > ws.tr_last.(src) then ws.tr_last.(src) <- b
    done;
    for i = 0 to ws.n - 1 do
      let c = ws.assign.(i) in
      let birth = ws.defs.(i) in
      let death = last_read ws i c birth in
      let death =
        if ws.tr_last.(i) > min_int then
          Int.max death (ws.icn_ct * ws.tr_last.(i))
        else death
      in
      ws.spans.(c) <- ws.spans.(c) + (death - birth)
    done;
    for j = 0 to ws.n_tr - 1 do
      let key = ws.tr_keys.(j) in
      let dst = key mod ws.n_clusters in
      let birth = ws.tr_arrival.(key) in
      let death = last_read ws (key / ws.n_clusters) dst birth in
      ws.spans.(dst) <- ws.spans.(dst) + (death - birth)
    done;
    let clusters = ws.machine.Machine.clusters in
    let ok = ref true in
    for c = 0 to ws.n_clusters - 1 do
      if ws.spans.(c) > ws.it * clusters.(c).Cluster.registers then ok := false
    done;
    ws.regs_ok <- !ok

  let reset ws =
    Mrt.clear ws.mrt;
    for j = 0 to ws.n_tr - 1 do
      ws.tr_slot.(ws.tr_keys.(j)) <- -1
    done;
    ws.n_tr <- 0;
    Array.fill ws.placed 0 ws.n false;
    ws.bus_epoch <- ws.bus_epoch + 1;
    ws.overflow <- 0;
    ws.back_violations <- 0

  let feasible ws = ws.overflow = 0 && ws.back_violations = 0 && ws.regs_ok

  let eval ws assignment =
    (* Invariant: callers build the assignment from this DDG (caller
       bug, not an input condition). *)
    if Array.length assignment <> ws.n then
      invalid_arg "Pseudo.Workspace.eval: assignment arity mismatch";
    reset ws;
    Array.blit assignment 0 ws.assign 0 ws.n;
    (* Greedy placement in topological order of the acyclic subgraph. *)
    for t = 0 to ws.n - 1 do
      place ws ws.topo.(t)
    done;
    check_back_edges ws;
    summarise ws;
    Hcv_obs.Trace.incr ws.obs "pseudo.evals";
    if not (feasible ws) then Hcv_obs.Trace.incr ws.obs "pseudo.infeasible"

  let n_comms ws = ws.n_tr
  let it_length ws = Timing.Memo.to_ns ws.memo ws.len

  let score ws =
    score_of ~overflow:ws.overflow ~back_violations:ws.back_violations
      ~regs_ok:ws.regs_ok ~n_comms:ws.n_tr (Q.to_float (it_length ws))

  let estimate ws =
    let placements =
      Array.init ws.n (fun i ->
          { Schedule.cluster = ws.assign.(i); cycle = ws.cyc.(i) })
    in
    let transfers =
      List.init ws.n_tr (fun j ->
          let key = ws.tr_keys.(j) in
          {
            Schedule.src = key / ws.n_clusters;
            dst_cluster = key mod ws.n_clusters;
            bus_cycle = ws.tr_slot.(key);
          })
      |> List.sort Stdlib.compare
    in
    ({
      schedule =
        Schedule.make ~loop:ws.loop ~machine:ws.machine
          ~clocking:(Timing.Memo.clocking ws.memo) ~placements ~transfers;
      overflow = ws.overflow;
      back_violations = ws.back_violations;
      regs_ok = ws.regs_ok;
      n_comms = ws.n_tr;
      it_length = it_length ws;
    }
      : estimate)
end

let estimate ~memo ?(obs = Hcv_obs.Trace.null) ~machine ~loop ~assignment ()
    =
  if Array.length assignment <> Ddg.n_instrs loop.Loop.ddg then
    invalid_arg "Pseudo.estimate: assignment arity mismatch";
  let ws = Workspace.create ~memo ~obs ~machine ~loop in
  Workspace.eval ws assignment;
  Workspace.estimate ws
