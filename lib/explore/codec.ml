open Hcv_support
open Hcv_machine
open Hcv_energy

let digest parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

let float_to_string f = Printf.sprintf "%h" f

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

let hex_float =
  Decode.refine "an exact float string" float_of_string_opt Decode.string

let point =
  Decode.(
    obj "point"
      (let+ cycle_time =
         req "ct" (refine "a rational \"num/den\"" q_of_string string)
       and+ vdd = req "vdd" hex_float in
       { Opconfig.cycle_time; vdd }))

let opconfig =
  Decode.(
    obj "config"
      (let+ clusters = req "clusters" (list point)
       and+ icn_point = req "icn" point
       and+ cache_point = req "cache" point in
       fun machine ->
         let cluster_points = Array.of_list clusters in
         match
           Opconfig.make ~machine ~cluster_points ~icn_point ~cache_point
         with
         | c -> Some c
         | exception Invalid_argument _ -> None))
