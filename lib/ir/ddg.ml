(* The graph is stored twice: CSR-style flat arrays (the primary
   representation, used by the schedulers' hot paths) and per-node
   adjacency lists precomputed from them (the legacy view served by
   [succs]/[preds]/[edges]).  Both views list every node's edges in
   construction order, so callers observe exactly the ordering the
   list-based implementation produced. *)
type t = {
  instrs : Instr.t array;
  edge_arr : Edge.t array;  (* construction order *)
  succ_off : int array;  (* length n+1; node i's out-edges are
                            edge_arr.(succ_idx.(succ_off.(i) .. succ_off.(i+1)-1)) *)
  succ_idx : int array;
  pred_off : int array;
  pred_idx : int array;
  edges_l : Edge.t list;
  succs_l : Edge.t list array;
  preds_l : Edge.t list array;
  topo : Instr.id list;  (* cached: computed once at construction *)
}

let n_instrs t = Array.length t.instrs
let instr t i = t.instrs.(i)
let instrs t = t.instrs
let edges t = t.edges_l
let n_edges t = Array.length t.edge_arr
let succs t i = t.succs_l.(i)
let preds t i = t.preds_l.(i)

(* CSR view *)

let edge_array t = t.edge_arr
let succ_offsets t = t.succ_off
let succ_index t = t.succ_idx
let pred_offsets t = t.pred_off
let pred_index t = t.pred_idx
let out_degree t i = t.succ_off.(i + 1) - t.succ_off.(i)
let in_degree t i = t.pred_off.(i + 1) - t.pred_off.(i)

let iter_succs t i f =
  for k = t.succ_off.(i) to t.succ_off.(i + 1) - 1 do
    f t.edge_arr.(t.succ_idx.(k))
  done

let iter_preds t i f =
  for k = t.pred_off.(i) to t.pred_off.(i + 1) - 1 do
    f t.edge_arr.(t.pred_idx.(k))
  done

let fold_succs t i f init =
  let acc = ref init in
  for k = t.succ_off.(i) to t.succ_off.(i + 1) - 1 do
    acc := f !acc t.edge_arr.(t.succ_idx.(k))
  done;
  !acc

let fold_preds t i f init =
  let acc = ref init in
  for k = t.pred_off.(i) to t.pred_off.(i + 1) - 1 do
    acc := f !acc t.edge_arr.(t.pred_idx.(k))
  done;
  !acc

let find_instr t name =
  Array.fold_left
    (fun acc (ins : Instr.t) ->
      match acc with
      | Some _ -> acc
      | None -> if String.equal ins.name name then Some ins else None)
    None t.instrs

(* Stable counting sort of edge indices by [key e] — per-node slices
   keep construction order. *)
let csr_index n edge_arr key =
  let m = Array.length edge_arr in
  let off = Array.make (n + 1) 0 in
  Array.iter (fun e -> off.(key e + 1) <- off.(key e + 1) + 1) edge_arr;
  for i = 1 to n do
    off.(i) <- off.(i) + off.(i - 1)
  done;
  let idx = Array.make m 0 in
  let cursor = Array.sub off 0 n in
  for k = 0 to m - 1 do
    let node = key edge_arr.(k) in
    idx.(cursor.(node)) <- k;
    cursor.(node) <- cursor.(node) + 1
  done;
  (off, idx)

(* Kahn topological sort of the zero-distance subgraph over the CSR
   arrays.  Returns None if that subgraph has a cycle. *)
let topo_order_csr n edge_arr succ_off succ_idx =
  let indeg = Array.make n 0 in
  Array.iter
    (fun (e : Edge.t) -> if e.distance = 0 then indeg.(e.dst) <- indeg.(e.dst) + 1)
    edge_arr;
  let queue = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.add i queue) indeg;
  let order = ref [] in
  let count = ref 0 in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    incr count;
    order := i :: !order;
    for k = succ_off.(i) to succ_off.(i + 1) - 1 do
      let e : Edge.t = edge_arr.(succ_idx.(k)) in
      if e.distance = 0 then begin
        indeg.(e.dst) <- indeg.(e.dst) - 1;
        if indeg.(e.dst) = 0 then Queue.add e.dst queue
      end
    done
  done;
  if !count = n then Some (List.rev !order) else None

let of_instrs instrs edges =
  Array.iteri
    (fun i (ins : Instr.t) ->
      if ins.id <> i then invalid_arg "Ddg.of_instrs: id/index mismatch")
    instrs;
  let n = Array.length instrs in
  let edge_arr = Array.of_list edges in
  Array.iter
    (fun (e : Edge.t) ->
      if e.src < 0 || e.src >= n || e.dst < 0 || e.dst >= n then
        invalid_arg "Ddg.of_instrs: edge endpoint out of range")
    edge_arr;
  let succ_off, succ_idx = csr_index n edge_arr (fun (e : Edge.t) -> e.src) in
  let pred_off, pred_idx = csr_index n edge_arr (fun (e : Edge.t) -> e.dst) in
  let topo =
    match topo_order_csr n edge_arr succ_off succ_idx with
    | Some order -> order
    | None -> invalid_arg "Ddg.of_instrs: zero-distance dependence cycle"
  in
  let list_view off idx =
    Array.init n (fun i ->
        List.init
          (off.(i + 1) - off.(i))
          (fun k -> edge_arr.(idx.(off.(i) + k))))
  in
  {
    instrs;
    edge_arr;
    succ_off;
    succ_idx;
    pred_off;
    pred_idx;
    edges_l = edges;
    succs_l = list_view succ_off succ_idx;
    preds_l = list_view pred_off pred_idx;
    topo;
  }

module Builder = struct
  type t = {
    mutable rev_instrs : Instr.t list;
    mutable rev_edges : Edge.t list;
    mutable count : int;
    mutable lat : int array;  (* latency of instruction i, O(1) lookup *)
  }

  let create () =
    { rev_instrs = []; rev_edges = []; count = 0; lat = Array.make 16 0 }

  let add_instr b ?name op =
    let id = b.count in
    let name = match name with Some n -> n | None -> Printf.sprintf "n%d" id in
    let ins = Instr.make ~id ~name ~op in
    b.rev_instrs <- ins :: b.rev_instrs;
    if id >= Array.length b.lat then begin
      let bigger = Array.make (2 * Array.length b.lat) 0 in
      Array.blit b.lat 0 bigger 0 id;
      b.lat <- bigger
    end;
    b.lat.(id) <- Instr.latency ins;
    b.count <- id + 1;
    id

  let add_edge b ?kind ?distance ?latency src dst =
    if src < 0 || src >= b.count || dst < 0 || dst >= b.count then
      invalid_arg "Ddg.Builder.add_edge: unknown endpoint";
    let latency = match latency with Some l -> l | None -> b.lat.(src) in
    b.rev_edges <- Edge.make ?kind ?distance ~src ~dst ~latency () :: b.rev_edges

  let build b =
    of_instrs (Array.of_list (List.rev b.rev_instrs)) (List.rev b.rev_edges)
end

let fu_demand t =
  let counts = Array.make Opcode.n_fu_kinds 0 in
  Array.iter
    (fun ins ->
      let k = Opcode.fu_index (Instr.fu ins) in
      counts.(k) <- counts.(k) + 1)
    t.instrs;
  List.map (fun kind -> (kind, counts.(Opcode.fu_index kind))) Opcode.all_fu_kinds

let topo_order t = t.topo

let earliest_starts t =
  let n = n_instrs t in
  let start = Array.make n 0 in
  List.iter
    (fun i ->
      iter_succs t i (fun (e : Edge.t) ->
          if e.distance = 0 then
            start.(e.dst) <- max start.(e.dst) (start.(i) + e.latency)))
    (topo_order t);
  start

let heights t =
  let n = n_instrs t in
  let h = Array.make n 0 in
  Array.iteri (fun i ins -> h.(i) <- Instr.latency ins) t.instrs;
  List.iter
    (fun i ->
      iter_succs t i (fun (e : Edge.t) ->
          if e.distance = 0 then h.(i) <- max h.(i) (e.latency + h.(e.dst))))
    (List.rev (topo_order t));
  h

let acyclic_critical_path t =
  if n_instrs t = 0 then 0
  else Array.fold_left max 0 (heights t)

let total_energy t =
  Array.fold_left (fun acc ins -> acc +. Instr.energy ins) 0.0 t.instrs

let pp ppf t =
  Format.fprintf ppf "@[<v>ddg (%d instrs, %d edges)" (n_instrs t) (n_edges t);
  Array.iter (fun ins -> Format.fprintf ppf "@,  %a" Instr.pp ins) t.instrs;
  Array.iter (fun e -> Format.fprintf ppf "@,  %a" Edge.pp e) t.edge_arr
