open Hcv_support
open Hcv_machine
open Hcv_energy

let digest parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

let float_to_string f = Printf.sprintf "%h" f
let float_of_string s = float_of_string_opt s

let q_to_string q = Printf.sprintf "%d/%d" (Q.num q) (Q.den q)

let q_of_string s =
  match String.split_on_char '/' s with
  | [ n ] -> Option.map Q.of_int (int_of_string_opt n)
  | [ n; d ] -> (
    match (int_of_string_opt n, int_of_string_opt d) with
    | Some n, Some d when d <> 0 -> Some (Q.make n d)
    | _, _ -> None)
  | _ -> None

let grid_key = function
  | Freqgrid.Unrestricted -> "unrestricted"
  | Freqgrid.Uniform { steps; top } ->
    Printf.sprintf "uniform:%d:%s" steps (q_to_string top)
  | Freqgrid.Dividers { steps; base } ->
    Printf.sprintf "dividers:%d:%s" steps (q_to_string base)

(* The historical key (name, cluster count, grid) is kept byte-for-byte
   for the paper-shaped machines so existing caches stay valid; any
   other cluster mix or ICN appends its full structural signature —
   name alone no longer pins the shape once machines can arrive from
   description files. *)
let machine_key (m : Machine.t) =
  let base =
    Printf.sprintf "%s:%d:%s" m.Machine.name (Machine.n_clusters m)
      (grid_key m.Machine.grid)
  in
  let paper_shaped =
    Array.for_all (fun c -> c = Cluster.paper) m.Machine.clusters
    && m.Machine.icn.Icn.latency_cycles = 1
  in
  if paper_shaped then base
  else
    Printf.sprintf "%s:clusters=%s:icn=%d.%d" base
      (String.concat ","
         (Array.to_list
            (Array.map
               (fun (c : Cluster.t) ->
                 Printf.sprintf "%d.%d.%d.%d" c.Cluster.int_fus c.Cluster.fp_fus
                   c.Cluster.mem_ports c.Cluster.registers)
               m.Machine.clusters)))
      m.Machine.icn.Icn.buses m.Machine.icn.Icn.latency_cycles

let params_key (p : Params.t) =
  String.concat ":"
    (List.map float_to_string
       [
         p.Params.frac_icn; p.Params.frac_cache; p.Params.leak_cluster;
         p.Params.leak_icn; p.Params.leak_cache;
       ])

let point_to_json (p : Opconfig.point) =
  Jsonx.Obj
    [
      ("ct", Jsonx.Str (q_to_string p.Opconfig.cycle_time));
      ("vdd", Jsonx.Str (float_to_string p.Opconfig.vdd));
    ]

let point_of_json j =
  match
    ( Option.bind (Jsonx.member "ct" j) Jsonx.str,
      Option.bind (Jsonx.member "vdd" j) Jsonx.str )
  with
  | Some ct, Some vdd -> (
    match (q_of_string ct, float_of_string vdd) with
    | Some cycle_time, Some vdd -> Some { Opconfig.cycle_time; vdd }
    | _, _ -> None)
  | _, _ -> None

let opconfig_to_json (c : Opconfig.t) =
  Jsonx.Obj
    [
      ( "clusters",
        Jsonx.List
          (Array.to_list (Array.map point_to_json c.Opconfig.cluster_points))
      );
      ("icn", point_to_json c.Opconfig.icn_point);
      ("cache", point_to_json c.Opconfig.cache_point);
    ]

let opconfig_of_json ~machine j =
  let ( let* ) = Option.bind in
  let* clusters = Option.bind (Jsonx.member "clusters" j) Jsonx.list in
  let* icn = Jsonx.member "icn" j in
  let* cache = Jsonx.member "cache" j in
  let* cluster_points =
    List.fold_left
      (fun acc p ->
        match (acc, point_of_json p) with
        | Some acc, Some p -> Some (p :: acc)
        | _, _ -> None)
      (Some []) clusters
    |> Option.map (fun l -> Array.of_list (List.rev l))
  in
  let* icn_point = point_of_json icn in
  let* cache_point = point_of_json cache in
  if Array.length cluster_points <> Machine.n_clusters machine then None
  else
    match Opconfig.make ~machine ~cluster_points ~icn_point ~cache_point with
    | c -> Some c
    | exception Invalid_argument _ -> None
