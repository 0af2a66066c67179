open Hcv_ir
open Hcv_machine

(* Rows are dense arrays indexed by [Opcode.fu_index] — no hashtable
   probe on the reserve/release/available hot path. *)
type cluster_table = {
  ii : int;
  caps : int array;  (* capacity per fu-kind index *)
  used : int array array;  (* occupancy per fu-kind index, length ii *)
  free_slots : int array;
      (* per fu-kind index: number of modulo slots with spare capacity.
         Zero means every candidate cycle is rejected, which the
         schedulers use to fail congested placements without scanning. *)
}

type t = {
  clusters : cluster_table array;
  bus_ii : int;
  bus_capacity : int;
  bus_used : int array;
  mutable bus_free_slots : int;  (* modulo slots with spare bus capacity *)
  mutable bus_ff : int;
      (* verified-full prefix: every cycle < bus_ff has a full bus slot.
         Lets the slot search skip the front of the window. *)
}

let create machine clocking =
  if Machine.n_clusters machine <> Clocking.n_clusters clocking then
    invalid_arg "Mrt.create: cluster count mismatch";
  let clusters =
    Array.mapi
      (fun i cluster ->
        let ii = clocking.Clocking.cluster_ii.(i) in
        let caps = Array.make Opcode.n_fu_kinds 0 in
        List.iter
          (fun kind ->
            caps.(Opcode.fu_index kind) <- Cluster.fu_count cluster kind)
          Opcode.all_fu_kinds;
        let used = Array.init Opcode.n_fu_kinds (fun _ -> Array.make ii 0) in
        let free_slots =
          Array.map (fun cap -> if cap > 0 then ii else 0) caps
        in
        { ii; caps; used; free_slots })
      machine.Machine.clusters
  in
  {
    clusters;
    bus_ii = clocking.Clocking.icn_ii;
    bus_capacity = machine.Machine.icn.Icn.buses;
    bus_used = Array.make clocking.Clocking.icn_ii 0;
    bus_free_slots =
      (if machine.Machine.icn.Icn.buses > 0 then clocking.Clocking.icn_ii
       else 0);
    bus_ff = 0;
  }

let slot_of ii cycle =
  if cycle < 0 then invalid_arg "Mrt: negative cycle";
  cycle mod ii

let fu_available t ~cluster ~kind ~cycle =
  let ct = t.clusters.(cluster) in
  let k = Opcode.fu_index kind in
  ct.used.(k).(slot_of ct.ii cycle) < ct.caps.(k)

let fu_reserve t ~cluster ~kind ~cycle =
  let ct = t.clusters.(cluster) in
  let k = Opcode.fu_index kind in
  let r = ct.used.(k) in
  let s = slot_of ct.ii cycle in
  if r.(s) >= ct.caps.(k) then invalid_arg "Mrt.fu_reserve: slot full";
  r.(s) <- r.(s) + 1;
  if r.(s) = ct.caps.(k) then ct.free_slots.(k) <- ct.free_slots.(k) - 1

let fu_release t ~cluster ~kind ~cycle =
  let ct = t.clusters.(cluster) in
  let r = ct.used.(Opcode.fu_index kind) in
  let s = slot_of ct.ii cycle in
  if r.(s) <= 0 then invalid_arg "Mrt.fu_release: slot empty";
  let k = Opcode.fu_index kind in
  if r.(s) = ct.caps.(k) then ct.free_slots.(k) <- ct.free_slots.(k) + 1;
  r.(s) <- r.(s) - 1

let bus_available t ~cycle = t.bus_used.(slot_of t.bus_ii cycle) < t.bus_capacity

let bus_reserve t ~cycle =
  let s = slot_of t.bus_ii cycle in
  if t.bus_used.(s) >= t.bus_capacity then
    invalid_arg "Mrt.bus_reserve: slot full";
  t.bus_used.(s) <- t.bus_used.(s) + 1;
  if t.bus_used.(s) = t.bus_capacity then
    t.bus_free_slots <- t.bus_free_slots - 1

let bus_release t ~cycle =
  let s = slot_of t.bus_ii cycle in
  if t.bus_used.(s) <= 0 then invalid_arg "Mrt.bus_release: slot empty";
  if t.bus_used.(s) = t.bus_capacity then
    t.bus_free_slots <- t.bus_free_slots + 1;
  t.bus_used.(s) <- t.bus_used.(s) - 1;
  (* the smallest absolute cycle of the freed congruence class *)
  if s < t.bus_ff then t.bus_ff <- s

let bus_first_free t ~earliest ~latest =
  if earliest > latest then -1
  else begin
    let lo = Int.max 0 earliest in
    (* Cycles < bus_ff are known full; skipping them cannot change the
       answer.  Only a scan that starts inside the verified prefix may
       extend it. *)
    let b = ref (Int.max lo t.bus_ff) in
    while !b <= latest && t.bus_used.(!b mod t.bus_ii) >= t.bus_capacity do
      incr b
    done;
    let found = !b <= latest in
    if lo <= t.bus_ff then
      t.bus_ff <- (if found then !b else Int.min (latest + 1) t.bus_ii);
    if found then !b else -1
  end

let fu_slots_free t ~cluster ~kind =
  t.clusters.(cluster).free_slots.(Opcode.fu_index kind)

let bus_slots_free t = t.bus_free_slots

let fu_used t ~cluster ~kind ~slot =
  t.clusters.(cluster).used.(Opcode.fu_index kind).(slot)

let bus_used t ~slot = t.bus_used.(slot)

(* Loops, not iterators: a pseudo-schedule workspace clears its tables
   once per evaluation, and this allocates nothing. *)
let clear t =
  Array.iter
    (fun ct ->
      for k = 0 to Opcode.n_fu_kinds - 1 do
        Array.fill ct.used.(k) 0 ct.ii 0;
        ct.free_slots.(k) <- (if ct.caps.(k) > 0 then ct.ii else 0)
      done)
    t.clusters;
  Array.fill t.bus_used 0 t.bus_ii 0;
  t.bus_free_slots <- (if t.bus_capacity > 0 then t.bus_ii else 0);
  t.bus_ff <- 0

let pp ppf t =
  Format.fprintf ppf "@[<v>mrt:";
  Array.iteri
    (fun i ct ->
      Format.fprintf ppf "@,  C%d (II=%d):" i ct.ii;
      List.iter
        (fun kind ->
          let r = ct.used.(Opcode.fu_index kind) in
          Format.fprintf ppf " %a=[%s]" Opcode.pp_fu kind
            (String.concat ";" (Array.to_list (Array.map string_of_int r))))
        Opcode.all_fu_kinds)
    t.clusters;
  Format.fprintf ppf "@,  bus (II=%d cap=%d): [%s]@]" t.bus_ii t.bus_capacity
    (String.concat ";" (Array.to_list (Array.map string_of_int t.bus_used)))
