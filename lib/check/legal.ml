(* The independent legality oracle.  Everything here is re-derived from
   the raw schedule/clocking records with plain rational arithmetic: no
   Mrt, no Timing, no Pseudo, no Schedule.validate — those are the
   subjects under test. *)

open Hcv_support
open Hcv_ir
open Hcv_machine
open Hcv_sched

type violation = { rule : string; detail : string }

let to_strings vs = List.map (fun v -> v.rule ^ ": " ^ v.detail) vs

(* ----- first-principles timing --------------------------------------- *)

(* Issue time of placement p: cycle boundaries of the cluster's domain. *)
let start_of (ck : Clocking.t) (p : Schedule.placement) =
  Q.mul_int ck.Clocking.cluster_ct.(p.Schedule.cluster) p.Schedule.cycle

(* Effective cycle time of an operation on a cluster: memory operations
   cannot advance faster than the cache clock. *)
let eff_ct_of (ck : Clocking.t) ~cluster kind =
  let ct = ck.Clocking.cluster_ct.(cluster) in
  match kind with
  | Opcode.Mem_port -> Q.max ct ck.Clocking.cache_ct
  | Opcode.Int_fu | Opcode.Fp_fu -> ct

(* Value-definition time of instruction i under its own latency. *)
let def_of (s : Schedule.t) i =
  let p = s.Schedule.placements.(i) in
  let ins = Ddg.instr s.Schedule.loop.Loop.ddg i in
  Q.add (start_of s.Schedule.clocking p)
    (Q.mul_int
       (eff_ct_of s.Schedule.clocking ~cluster:p.Schedule.cluster
          (Instr.fu ins))
       (Instr.latency ins))

(* Arrival time of a transfer: it occupies the bus from cycle b and the
   value is usable in the destination cluster at the end of the bus
   occupancy, (b + buslat) ICN-cycle boundaries in. *)
let arrival_of (s : Schedule.t) (tr : Schedule.transfer) =
  let buslat = s.Schedule.machine.Machine.icn.Icn.latency_cycles in
  Q.mul_int s.Schedule.clocking.Clocking.icn_ct
    (tr.Schedule.bus_cycle + buslat)

(* ----- lifetimes ------------------------------------------------------ *)

let lifetime_sums (s : Schedule.t) =
  let ddg = s.Schedule.loop.Loop.ddg in
  let ck = s.Schedule.clocking in
  let it = ck.Clocking.it in
  let spans = Array.make (Machine.n_clusters s.Schedule.machine) Q.zero in
  let start i = start_of ck s.Schedule.placements.(i) in
  (* Last read of the value of [src] inside [cluster], at or after
     [from]: consumers of iteration [i + d] read at start + d*IT. *)
  let last_read ~cluster src from =
    List.fold_left
      (fun acc (e : Edge.t) ->
        if
          e.Edge.kind = Edge.Flow
          && s.Schedule.placements.(e.Edge.dst).Schedule.cluster = cluster
        then Q.max acc (Q.add (start e.Edge.dst) (Q.mul_int it e.Edge.distance))
        else acc)
      from (Ddg.succs ddg src)
  in
  Array.iteri
    (fun i (p : Schedule.placement) ->
      let birth = def_of s i in
      (* The producer-side copy also stays live until its last bus
         departure (the send reads the register). *)
      let death =
        List.fold_left
          (fun acc (tr : Schedule.transfer) ->
            if tr.Schedule.src = i then
              Q.max acc
                (Q.mul_int ck.Clocking.icn_ct tr.Schedule.bus_cycle)
            else acc)
          (last_read ~cluster:p.Schedule.cluster i birth)
          s.Schedule.transfers
      in
      spans.(p.Schedule.cluster) <-
        Q.add spans.(p.Schedule.cluster) (Q.sub death birth))
    s.Schedule.placements;
  List.iter
    (fun (tr : Schedule.transfer) ->
      let birth = arrival_of s tr in
      let death = last_read ~cluster:tr.Schedule.dst_cluster tr.Schedule.src birth in
      spans.(tr.Schedule.dst_cluster) <-
        Q.add spans.(tr.Schedule.dst_cluster) (Q.sub death birth))
    s.Schedule.transfers;
  spans

(* ----- the verifier --------------------------------------------------- *)

(* [add] takes the already-rendered detail string, so this helper can be
   shared between [verify] and [verify_clocking]. *)
let check_domain add name ~it ~ii ~ct =
  if ii < 1 then add "clocking" (Printf.sprintf "%s: II %d < 1" name ii);
  if Q.sign ct <= 0 then
    add "clocking"
      (Format.asprintf "%s: non-positive cycle time %a" name Q.pp ct);
  if ii >= 1 && Q.sign ct > 0 && not (Q.equal (Q.mul_int ct ii) it) then
    add "clocking"
      (Format.asprintf "%s: II (%d) x cycle time (%a) is not the IT (%a)" name
         ii Q.pp ct Q.pp it)

let verify (s : Schedule.t) =
  let vs = ref [] in
  let add rule detail = vs := { rule; detail } :: !vs in
  let err rule fmt = Format.kasprintf (add rule) fmt in
  let ddg = s.Schedule.loop.Loop.ddg in
  let ck = s.Schedule.clocking in
  let it = ck.Clocking.it in
  let n_cl = Machine.n_clusters s.Schedule.machine in
  let n = Array.length s.Schedule.placements in
  (* Structure and clocking first; the later checks index freely. *)
  if Ddg.n_instrs ddg <> n then
    err "structure" "placements cover %d instructions, DDG has %d" n
      (Ddg.n_instrs ddg);
  if Array.length ck.Clocking.cluster_ct <> n_cl
     || Array.length ck.Clocking.cluster_ii <> n_cl
  then
    err "structure" "clocking has %d cluster domains, machine has %d"
      (Array.length ck.Clocking.cluster_ct) n_cl;
  if Q.sign it <= 0 then err "clocking" "non-positive IT %a" Q.pp it;
  if !vs = [] then begin
    Array.iteri
      (fun c ct ->
        check_domain add (Printf.sprintf "cluster %d" c) ~it
          ~ii:ck.Clocking.cluster_ii.(c) ~ct)
      ck.Clocking.cluster_ct;
    check_domain add "icn" ~it ~ii:ck.Clocking.icn_ii ~ct:ck.Clocking.icn_ct;
    check_domain add "cache" ~it ~ii:ck.Clocking.cache_ii
      ~ct:ck.Clocking.cache_ct
  end;
  (* Placement sanity. *)
  if !vs = [] then
    Array.iteri
      (fun i (p : Schedule.placement) ->
        if p.Schedule.cluster < 0 || p.Schedule.cluster >= n_cl then
          err "placement" "instr %d: cluster %d out of range" i
            p.Schedule.cluster
        else if p.Schedule.cycle < 0 then
          err "placement" "instr %d: negative cycle %d" i p.Schedule.cycle)
      s.Schedule.placements;
  match !vs with
  | _ :: _ -> Error (List.rev !vs)
  | [] ->
    (* Capability eligibility, re-derived per placement: an operation
       may only sit on a cluster owning at least one unit of its FU
       kind.  The modulo-occupancy check below also rejects such a
       placement (u > cap with cap = 0), but this rule names the
       offending operation directly. *)
    Array.iteri
      (fun i (p : Schedule.placement) ->
        let kind = Instr.fu (Ddg.instr ddg i) in
        if
          not
            (Cluster.capable
               (Machine.cluster s.Schedule.machine p.Schedule.cluster)
               kind)
        then
          err "fu-eligibility" "instr %d (%s) placed on cluster %d with no %s"
            i
            (Ddg.instr ddg i).Instr.name
            p.Schedule.cluster
            (Opcode.fu_to_string kind))
      s.Schedule.placements;
    (* FU occupancy per (cluster, kind, cycle mod II_cluster). *)
    let used =
      Array.init n_cl (fun c ->
          Array.make_matrix Opcode.n_fu_kinds ck.Clocking.cluster_ii.(c) 0)
    in
    Array.iteri
      (fun i (p : Schedule.placement) ->
        let kind = Instr.fu (Ddg.instr ddg i) in
        let slot = p.Schedule.cycle mod ck.Clocking.cluster_ii.(p.Schedule.cluster) in
        let row = used.(p.Schedule.cluster).(Opcode.fu_index kind) in
        row.(slot) <- row.(slot) + 1)
      s.Schedule.placements;
    Array.iteri
      (fun c per_kind ->
        List.iter
          (fun kind ->
            let cap = Cluster.fu_count (Machine.cluster s.Schedule.machine c) kind in
            Array.iteri
              (fun slot u ->
                if u > cap then
                  err "fu-capacity"
                    "cluster %d %s modulo slot %d: %d operations on %d units"
                    c (Opcode.fu_to_string kind) slot u cap)
              per_kind.(Opcode.fu_index kind))
          Opcode.all_fu_kinds)
      used;
    (* Transfers: endpoints, departure-after-sync, bus occupancy. *)
    let bus_used = Array.make ck.Clocking.icn_ii 0 in
    List.iter
      (fun (tr : Schedule.transfer) ->
        if tr.Schedule.src < 0 || tr.Schedule.src >= n then
          err "transfer" "transfer of unknown instruction %d" tr.Schedule.src
        else if tr.Schedule.dst_cluster < 0 || tr.Schedule.dst_cluster >= n_cl
        then
          err "transfer" "transfer from %d: cluster %d out of range"
            tr.Schedule.src tr.Schedule.dst_cluster
        else if tr.Schedule.bus_cycle < 0 then
          err "transfer" "transfer from %d: negative bus cycle %d"
            tr.Schedule.src tr.Schedule.bus_cycle
        else begin
          let slot = tr.Schedule.bus_cycle mod ck.Clocking.icn_ii in
          bus_used.(slot) <- bus_used.(slot) + 1;
          (* One full ICN cycle must separate the value definition from
             the bus departure (the synchronisation queue). *)
          let sync_ok =
            Q.( >= )
              (Q.mul_int ck.Clocking.icn_ct (tr.Schedule.bus_cycle - 1))
              (def_of s tr.Schedule.src)
          in
          if not sync_ok then
            err "transfer"
              "transfer from %d departs at bus cycle %d, less than one ICN \
               cycle after its value is defined (%a ns)"
              tr.Schedule.src tr.Schedule.bus_cycle Q.pp (def_of s tr.Schedule.src)
        end)
      s.Schedule.transfers;
    Array.iteri
      (fun slot u ->
        if u > s.Schedule.machine.Machine.icn.Icn.buses then
          err "bus-capacity" "bus modulo slot %d: %d transfers on %d buses"
            slot u s.Schedule.machine.Machine.icn.Icn.buses)
      bus_used;
    (* Dependences, in nanoseconds across clock domains. *)
    List.iter
      (fun (e : Edge.t) ->
        let ps = s.Schedule.placements.(e.Edge.src) in
        let pd = s.Schedule.placements.(e.Edge.dst) in
        (* Earliest time the consumer's iteration may observe the
           dependence: its start plus the distance in iterations. *)
        let avail =
          Q.add (start_of ck pd) (Q.mul_int it e.Edge.distance)
        in
        (* Definition time under the *edge's* latency (anti/output edges
           carry a latency different from the instruction's). *)
        let src_kind = Instr.fu (Ddg.instr ddg e.Edge.src) in
        let edge_def =
          Q.add (start_of ck ps)
            (Q.mul_int
               (eff_ct_of ck ~cluster:ps.Schedule.cluster src_kind)
               e.Edge.latency)
        in
        if ps.Schedule.cluster = pd.Schedule.cluster then begin
          if Q.( < ) avail edge_def then
            err "dependence"
              "edge %a: consumer observes at %a ns, producer defines at %a ns"
              Edge.pp e Q.pp avail Q.pp edge_def
        end
        else if e.Edge.kind = Edge.Flow then begin
          let served =
            List.exists
              (fun (tr : Schedule.transfer) ->
                tr.Schedule.src = e.Edge.src
                && tr.Schedule.dst_cluster = pd.Schedule.cluster
                && Q.( <= ) (arrival_of s tr) avail)
              s.Schedule.transfers
          in
          (* Departure legality of every transfer is already enforced
             above, so a serving transfer only needs to arrive in time. *)
          if not served then
            err "dependence"
              "edge %a: no transfer delivers the value to cluster %d by %a ns"
              Edge.pp e pd.Schedule.cluster Q.pp avail
        end
        else begin
          let needed = Q.add edge_def ck.Clocking.icn_ct in
          if Q.( < ) avail needed then
            err "dependence"
              "cross-domain edge %a: consumer observes at %a ns, needs %a ns \
               (one ICN cycle of synchronisation)"
              Edge.pp e Q.pp avail Q.pp needed
        end)
      (Ddg.edges ddg);
    (* Register pressure: per-cluster lifetime budget. *)
    Array.iteri
      (fun c span ->
        let budget =
          Q.mul_int it (Machine.cluster s.Schedule.machine c).Cluster.registers
        in
        if Q.( > ) span budget then
          err "register-pressure"
            "cluster %d: summed lifetimes %a ns exceed %d registers x IT = %a \
             ns"
            c Q.pp span
            (Machine.cluster s.Schedule.machine c).Cluster.registers Q.pp
            budget)
      (lifetime_sums s);
    (match List.rev !vs with [] -> Ok () | es -> Error es)

let verify_clocking ~(config : Opconfig.t) (ck : Clocking.t) =
  let vs = ref [] in
  let add rule detail = vs := { rule; detail } :: !vs in
  let err rule fmt = Format.kasprintf (add rule) fmt in
  let machine = config.Opconfig.machine in
  let n_cl = Machine.n_clusters machine in
  if Array.length ck.Clocking.cluster_ct <> n_cl then
    err "clocking" "clocking has %d cluster domains, config machine has %d"
      (Array.length ck.Clocking.cluster_ct) n_cl
  else begin
    let grid_freqs = Freqgrid.frequencies machine.Machine.grid in
    let check name comp ii ct =
      check_domain add name ~it:ck.Clocking.it ~ii ~ct;
      (* No domain may be clocked above its configured maximum
         frequency: the actual cycle time only ever stretches. *)
      let fmax_ct = Opconfig.cycle_time config comp in
      if Q.( < ) ct fmax_ct then
        err "clocking" "%s: cycle time %a ns below the configured minimum %a ns"
          name Q.pp ct Q.pp fmax_ct;
      match grid_freqs with
      | None -> ()
      | Some fs ->
        let f = Q.inv ct in
        if not (List.exists (Q.equal f) fs) then
          err "clocking" "%s: frequency %a GHz is not on the machine's grid"
            name Q.pp f
    in
    Array.iteri
      (fun c ct ->
        check (Printf.sprintf "cluster %d" c) (Comp.Cluster c)
          ck.Clocking.cluster_ii.(c) ct)
      ck.Clocking.cluster_ct;
    check "icn" Comp.Icn ck.Clocking.icn_ii ck.Clocking.icn_ct;
    check "cache" Comp.Cache ck.Clocking.cache_ii ck.Clocking.cache_ct
  end;
  match List.rev !vs with [] -> Ok () | es -> Error es
