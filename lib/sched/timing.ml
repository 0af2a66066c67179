open Hcv_support
open Hcv_ir

let eff_ct clocking ~cluster ins =
  let ct = clocking.Clocking.cluster_ct.(cluster) in
  match Instr.fu ins with
  | Opcode.Mem_port -> Q.max ct clocking.Clocking.cache_ct
  | Opcode.Int_fu | Opcode.Fp_fu -> ct

let start_time clocking ~cluster ~cycle =
  Q.mul_int clocking.Clocking.cluster_ct.(cluster) cycle

let def_time clocking ~cluster ~cycle ins =
  Q.add (start_time clocking ~cluster ~cycle)
    (Q.mul_int (eff_ct clocking ~cluster ins) (Instr.latency ins))

let earliest_bus_cycle clocking ~def_time =
  (* One sync cycle: the transfer may start at the first ICN cycle
     boundary at least one ICN cycle after the value is ready;
     ceil((def + ct) / ct) = ceil(def / ct) + 1. *)
  max 0 (Q.ceil_div def_time clocking.Clocking.icn_ct + 1)

let latest_bus_cycle clocking ~buslat ~need =
  Q.floor_div need clocking.Clocking.icn_ct - buslat

let bus_arrival clocking ~buslat ~bus_cycle =
  Q.mul_int clocking.Clocking.icn_ct (bus_cycle + buslat)

let earliest_cycle clocking ~cluster ~ready =
  max 0 (Q.ceil_div ready clocking.Clocking.cluster_ct.(cluster))

let sync_penalty clocking = clocking.Clocking.icn_ct

(* The same rules in integer ticks: the schedulers' hot paths add and
   compare native ints instead of gcd-normalising rationals. *)
module Memo = struct
  type t = {
    clocking : Clocking.t;
    ticks_per_ns : int;
    it : int;
    cluster_ct : int array;
    icn_ct : int;
    def_offsets : int array array array;
        (* cluster × fu-kind index × latency: eff_ct * latency *)
  }

  let max_ticks = 1 lsl 40

  let max_latency =
    List.fold_left (fun acc op -> max acc (Opcode.latency op)) 0 Opcode.all

  exception Out_of_range

  (* [a * b] for positive operands, refused past [max_ticks]. *)
  let mul a b =
    if a <= 0 || b <= 0 || a > max_ticks / b then raise_notrace Out_of_range
    else a * b

  let create (c : Clocking.t) =
    match
      let lcm d q = mul (d / Q.gcd d (Q.den q)) (Q.den q) in
      let d =
        List.fold_left lcm 1
          (c.it :: c.icn_ct :: c.cache_ct :: Array.to_list c.cluster_ct)
      in
      let tick q = mul (Q.num q) (d / Q.den q) in
      let cluster_ct = Array.map tick c.cluster_ct in
      let cache = tick c.cache_ct in
      let offsets ct k =
        let mem = k = Opcode.fu_index Opcode.Mem_port in
        let eff = if mem then Int.max ct cache else ct in
        Array.init (max_latency + 1) (fun lat -> eff * lat)
      in
      let per_kind ct = Array.init Opcode.n_fu_kinds (offsets ct) in
      { clocking = c; ticks_per_ns = d; it = tick c.it; cluster_ct;
        icn_ct = tick c.icn_ct; def_offsets = Array.map per_kind cluster_ct }
    with
    | t -> Ok t
    | exception Out_of_range ->
      let bound = string_of_int max_ticks in
      Error
        (Hcv_obs.Diag.v ~code:"tick-range"
           ~context:[ ("it", Q.to_string c.it); ("max_ticks", bound) ]
           "clocking does not fit the schedulers' integer time base")

  let clocking t = t.clocking
  let it t = t.it
  let icn_ct t = t.icn_ct
  let to_ns t ticks = Q.make ticks t.ticks_per_ns

  let lat_offset t ~cluster kind lat =
    let row = t.def_offsets.(cluster).(Opcode.fu_index kind) in
    if lat >= 0 && lat < Array.length row then row.(lat) else row.(1) * lat

  let def_offset t ~cluster ins =
    lat_offset t ~cluster (Instr.fu ins) (Instr.latency ins)

  let start_time t ~cluster ~cycle = t.cluster_ct.(cluster) * cycle

  let earliest_bus_cycle t ~def_time =
    Int.max 0 (Q.ceildiv def_time t.icn_ct + 1)

  let latest_bus_cycle t ~buslat ~need = Q.floordiv need t.icn_ct - buslat
  let bus_arrival t ~buslat ~bus_cycle = t.icn_ct * (bus_cycle + buslat)

  let earliest_cycle t ~cluster ~ready =
    Int.max 0 (Q.ceildiv ready t.cluster_ct.(cluster))
end
