open Hcv_support
open Hcv_ir
open Hcv_machine

type placement = { cluster : int; cycle : int }
type transfer = { src : Instr.id; dst_cluster : int; bus_cycle : int }

type t = {
  loop : Loop.t;
  machine : Machine.t;
  clocking : Clocking.t;
  placements : placement array;
  transfers : transfer list;
}

let make ~loop ~machine ~clocking ~placements ~transfers =
  if Array.length placements <> Ddg.n_instrs loop.Loop.ddg then
    invalid_arg "Schedule.make: placement arity mismatch";
  { loop; machine; clocking; placements; transfers }

let start_time t i =
  let p = t.placements.(i) in
  Timing.start_time t.clocking ~cluster:p.cluster ~cycle:p.cycle

let def_time t i =
  let p = t.placements.(i) in
  Timing.def_time t.clocking ~cluster:p.cluster ~cycle:p.cycle
    (Ddg.instr t.loop.Loop.ddg i)

let buslat t = t.machine.Machine.icn.Icn.latency_cycles

let arrival t (tr : transfer) =
  Timing.bus_arrival t.clocking ~buslat:(buslat t) ~bus_cycle:tr.bus_cycle

let it_length t =
  let len = ref Q.zero in
  Array.iteri (fun i _ -> len := Q.max !len (def_time t i)) t.placements;
  List.iter (fun tr -> len := Q.max !len (arrival t tr)) t.transfers;
  !len

let stage_count t =
  let it = t.clocking.Clocking.it in
  if Q.sign it <= 0 then 0 else Q.ceil (Q.div (it_length t) it)

let exec_time_ns t ~trip =
  let it = Q.to_float t.clocking.Clocking.it in
  (float_of_int (trip - 1) *. it) +. Q.to_float (it_length t)

let n_comms t = List.length t.transfers

let per_cluster_ins_energy t =
  let e = Array.make (Machine.n_clusters t.machine) 0.0 in
  Array.iteri
    (fun i p ->
      e.(p.cluster) <-
        e.(p.cluster) +. Instr.energy (Ddg.instr t.loop.Loop.ddg i))
    t.placements;
  e

let n_mem t =
  Array.fold_left
    (fun acc (ins : Instr.t) ->
      if Instr.fu ins = Opcode.Mem_port then acc + 1 else acc)
    0
    (Ddg.instrs t.loop.Loop.ddg)

(* Per-cluster summed value lifetimes in ns.  A value lives in its
   producer's register file from definition until its last same-cluster
   read or last bus send, and in each destination cluster's register
   file from bus arrival until the last read there. *)
let lifetimes_ns t =
  let ddg = t.loop.Loop.ddg in
  let it = t.clocking.Clocking.it in
  let n = Array.length t.placements in
  let spans = Array.make (Machine.n_clusters t.machine) Q.zero in
  (* Start times are read once per incident value edge below; transfers
     are bucketed by source so each instruction only visits its own. *)
  let starts = Array.init n (fun i -> start_time t i) in
  let by_src = Array.make n [] in
  List.iter (fun (tr : transfer) -> by_src.(tr.src) <- tr :: by_src.(tr.src))
    t.transfers;
  let last_read ~cluster i death0 =
    Ddg.fold_succs ddg i
      (fun death (e : Edge.t) ->
        if Edge.carries_value e && t.placements.(e.dst).cluster = cluster then
          Q.max death (Q.add starts.(e.dst) (Q.mul_int it e.distance))
        else death)
      death0
  in
  Array.iteri
    (fun i p ->
      let birth = def_time t i in
      let death = ref (last_read ~cluster:p.cluster i birth) in
      List.iter
        (fun (tr : transfer) ->
          death :=
            Q.max !death (Q.mul_int t.clocking.Clocking.icn_ct tr.bus_cycle))
        by_src.(i);
      spans.(p.cluster) <- Q.add spans.(p.cluster) (Q.sub !death birth))
    t.placements;
  List.iter
    (fun (tr : transfer) ->
      let birth = arrival t tr in
      let death = last_read ~cluster:tr.dst_cluster tr.src birth in
      spans.(tr.dst_cluster) <- Q.add spans.(tr.dst_cluster) (Q.sub death birth))
    t.transfers;
  spans

let validate t =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  let ddg = t.loop.Loop.ddg in
  let n_cl = Machine.n_clusters t.machine in
  let it = t.clocking.Clocking.it in
  (* Placements in range and on existing resources. *)
  Array.iteri
    (fun i p ->
      if p.cluster < 0 || p.cluster >= n_cl then
        err "instr %d: cluster %d out of range" i p.cluster
      else begin
        if p.cycle < 0 then err "instr %d: negative cycle %d" i p.cycle;
        let kind = Instr.fu (Ddg.instr ddg i) in
        if Cluster.fu_count (Machine.cluster t.machine p.cluster) kind = 0 then
          err "instr %d: cluster %d has no %s" i p.cluster
            (Opcode.fu_to_string kind)
      end)
    t.placements;
  if !errs <> [] then Error (List.rev !errs)
  else begin
    (* FU capacity per modulo slot. *)
    let tbl = Hashtbl.create 64 in
    Array.iteri
      (fun i p ->
        let kind = Instr.fu (Ddg.instr ddg i) in
        let slot = p.cycle mod t.clocking.Clocking.cluster_ii.(p.cluster) in
        let key = (p.cluster, kind, slot) in
        Hashtbl.replace tbl key
          (1 + Option.value (Hashtbl.find_opt tbl key) ~default:0))
      t.placements;
    Hashtbl.iter
      (fun (cl, kind, slot) used ->
        let cap = Cluster.fu_count (Machine.cluster t.machine cl) kind in
        if used > cap then
          err "cluster %d %s slot %d: %d ops for %d units" cl
            (Opcode.fu_to_string kind) slot used cap)
      tbl;
    (* Bus capacity per modulo slot. *)
    let bus = Array.make t.clocking.Clocking.icn_ii 0 in
    List.iter
      (fun (tr : transfer) ->
        if tr.bus_cycle < 0 then err "transfer from %d: negative bus cycle" tr.src
        else begin
          let slot = tr.bus_cycle mod t.clocking.Clocking.icn_ii in
          bus.(slot) <- bus.(slot) + 1
        end)
      t.transfers;
    Array.iteri
      (fun slot used ->
        if used > t.machine.Machine.icn.Icn.buses then
          err "bus slot %d: %d transfers for %d buses" slot used
            t.machine.Machine.icn.Icn.buses)
      bus;
    (* Transfers must leave after their value is defined. *)
    List.iter
      (fun (tr : transfer) ->
        if tr.dst_cluster < 0 || tr.dst_cluster >= n_cl then
          err "transfer from %d: bad cluster %d" tr.src tr.dst_cluster;
        let earliest =
          Timing.earliest_bus_cycle t.clocking ~def_time:(def_time t tr.src)
        in
        if tr.bus_cycle < earliest then
          err "transfer from %d: bus cycle %d before earliest %d" tr.src
            tr.bus_cycle earliest)
      t.transfers;
    (* Dependences. *)
    List.iter
      (fun (e : Edge.t) ->
        let ps = t.placements.(e.src) and pd = t.placements.(e.dst) in
        let lhs = Q.add (start_time t e.dst) (Q.mul_int it e.distance) in
        (* The def time under the edge's latency (which may differ from
           the instruction latency, e.g. 0-latency anti edges). *)
        let src_def =
          Q.add
            (start_time t e.src)
            (Q.mul_int
               (Timing.eff_ct t.clocking ~cluster:ps.cluster
                  (Ddg.instr ddg e.src))
               e.latency)
        in
        if ps.cluster = pd.cluster then begin
          if Q.( < ) lhs src_def then
            err "edge %a violated: dst starts at %a, needs %a" Edge.pp e Q.pp
              lhs Q.pp src_def
        end
        else if Edge.carries_value e then begin
          let ok =
            List.exists
              (fun (tr : transfer) ->
                tr.src = e.src && tr.dst_cluster = pd.cluster
                && Q.( <= ) (arrival t tr) lhs
                && tr.bus_cycle
                   >= Timing.earliest_bus_cycle t.clocking
                        ~def_time:(def_time t e.src))
              t.transfers
          in
          if not ok then
            err "edge %a: no transfer delivers the value in time" Edge.pp e
        end
        else begin
          let needed = Q.add src_def (Timing.sync_penalty t.clocking) in
          if Q.( < ) lhs needed then
            err "cross-cluster edge %a violated: dst at %a, needs %a" Edge.pp
              e Q.pp lhs Q.pp needed
        end)
      (Ddg.edges ddg);
    (* Register pressure. *)
    Array.iteri
      (fun cl span ->
        let budget =
          Q.mul_int it (Machine.cluster t.machine cl).Cluster.registers
        in
        if Q.( > ) span budget then
          err "cluster %d register pressure: lifetimes %a ns > budget %a ns" cl
            Q.pp span Q.pp budget)
      (lifetimes_ns t);
    match List.rev !errs with [] -> Ok () | es -> Error es
  end

let pp ppf t =
  Format.fprintf ppf "@[<v>schedule of %s (IT=%a ns, len=%a ns, SC=%d):"
    t.loop.Loop.name Q.pp t.clocking.Clocking.it Q.pp (it_length t)
    (stage_count t);
  Array.iteri
    (fun i p ->
      Format.fprintf ppf "@,  %a @@ C%d cycle %d" Instr.pp
        (Ddg.instr t.loop.Loop.ddg i) p.cluster p.cycle)
    t.placements;
  List.iter
    (fun (tr : transfer) ->
      Format.fprintf ppf "@,  copy %d -> C%d @@ bus cycle %d" tr.src
        tr.dst_cluster tr.bus_cycle)
    t.transfers;
  Format.fprintf ppf "@]"
