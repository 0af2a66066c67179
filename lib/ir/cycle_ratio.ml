open Hcv_support

(* Edges of the induced subgraph, with endpoints renumbered densely. *)
let induced ddg nodes =
  let n = List.length nodes in
  let rank = Hashtbl.create n in
  List.iteri (fun i v -> Hashtbl.replace rank v i) nodes;
  let edges =
    List.concat_map
      (fun v ->
        List.filter_map
          (fun (e : Edge.t) ->
            match (Hashtbl.find_opt rank e.src, Hashtbl.find_opt rank e.dst) with
            | Some s, Some d -> Some (s, d, e.latency, e.distance)
            | _, _ -> None)
          (Ddg.succs ddg v))
      nodes
  in
  (n, Array.of_list edges)

(* Bellman-Ford longest paths from a virtual source under the integer
   weights [q*l - p*d], each node remembering the edge that last raised
   it.  A node still raised in round [n] lies [n] such edges from a cycle
   of them, and every such cycle has positive weight, so a ratio above
   [p/q]: the answer is its (sum l, sum d). *)
let positive_cycle n edges ~p ~q =
  let dist = Array.make n 0 and via = Array.make n (-1) in
  let relax last i (s, d, l, dd) =
    let w = dist.(s) + (q * l) - (p * dd) in
    if w > dist.(d) then begin
      dist.(d) <- w;
      via.(d) <- i;
      d
    end
    else last
  in
  let round () =
    let last = ref (-1) in
    Array.iteri (fun i e -> last := relax !last i e) edges;
    !last
  in
  let rec rounds k =
    let last = round () in
    if last < 0 then None else if k < n then rounds (k + 1) else Some last
  in
  let src u = match edges.(via.(u)) with s, _, _, _ -> s in
  let rec back u k = if k = 0 then u else back (src u) (k - 1) in
  let rec around start u (sl, sd) =
    let s, _, l, dd = edges.(via.(u)) in
    if s = start then (sl + l, sd + dd) else around start s (sl + l, sd + dd)
  in
  Option.map
    (fun v ->
      let start = back v n in
      around start start (0, 0))
    (rounds 1)

let has_positive_cycle ddg nodes r =
  let n, edges = induced ddg nodes in
  positive_cycle n edges ~p:(Q.num r) ~q:(Q.den r) <> None

(* Every cycle's distances sum to at least 1, so every cycle has a ratio
   above -1: the first step finds one, or there is none.  Each later
   step jumps to the ratio of a positive cycle, strictly larger, until
   no cycle is left above it. *)
let exact_over ddg nodes =
  let n, edges = induced ddg nodes in
  let rec climb (p, q) =
    match positive_cycle n edges ~p ~q with
    | None -> Q.make p q
    | Some ratio -> climb ratio
  in
  Option.map climb (positive_cycle n edges ~p:(-1) ~q:1)
