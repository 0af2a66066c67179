(* JSON machine descriptions: the import/export format that lets
   machines arrive from files (`hcvliw --machine FILE`), from the serve
   wire protocol (the "machine" request field) and from sweep cells,
   instead of only from compiled-in presets.

   Shape:
     { "name": "my-machine",
       "clusters": [ { "int": 1, "fp": 1, "mem": 1, "regs": 16,
                       "name": "c0" }, ... ],
       "icn": { "buses": 1, "latency": 1 },
       "grid": "unrestricted"
             | { "kind": "uniform",  "steps": 8, "top": "20/9" }
             | { "kind": "dividers", "steps": 8, "base": "20/9" } }

   "icn" and "grid" are optional (1 bus / 1 cycle, unrestricted);
   cluster "name" and "regs" are optional ("c<i>", 16).  Rationals use
   Codec's exact "num/den" form.  [to_string] emits every field
   explicitly, so it is a canonical form: structurally equal machines
   serialise byte-identically, which is what lets the serialised text
   serve as a cache-key component. *)

open Hcv_support
open Hcv_machine
module J = Jsonx

let ( let* ) = Result.bind

let err fmt = Format.kasprintf (fun msg -> Error msg) fmt

(* Selection time is linear in a grid's steps, so every boundary a grid
   arrives through caps them; 64 is four times Figure 7's densest
   grid. *)
let max_grid_steps = 64

let int_field ?default j k =
  match J.member k j with
  | None -> (
    match default with
    | Some d -> Ok d
    | None -> err "missing integer field %S" k)
  | Some v -> (
    match J.int v with
    | Some n when n >= 0 -> Ok n
    | Some _ -> err "field %S must be non-negative" k
    | None -> err "field %S must be an integer" k)

let q_field j k =
  match Option.bind (J.member k j) J.str with
  | None -> err "grid needs a rational string field %S (e.g. \"20/9\")" k
  | Some s -> (
    match Codec.q_of_string s with
    | Some q when Q.(zero < q) -> Ok q
    | Some _ -> err "field %S must be a positive rational" k
    | None -> err "field %S is not a rational (\"num/den\")" k)

let cluster_of_json i j =
  match j with
  | J.Obj _ ->
    let* int_fus = int_field j "int" in
    let* fp_fus = int_field j "fp" in
    let* mem_ports = int_field j "mem" in
    let* registers = int_field ~default:16 j "regs" in
    let name =
      Option.value
        (Option.bind (J.member "name" j) J.str)
        ~default:(Printf.sprintf "c%d" i)
    in
    Ok (Cluster.make ~name ~int_fus ~fp_fus ~mem_ports ~registers ())
  | _ -> err "cluster %d must be a JSON object" i

let icn_of_json = function
  | None -> Ok (Icn.make ~buses:1 ())
  | Some j ->
    let* buses = int_field ~default:1 j "buses" in
    let* latency = int_field ~default:1 j "latency" in
    if buses < 1 then err "icn \"buses\" must be >= 1"
    else if latency < 1 then err "icn \"latency\" must be >= 1"
    else Ok (Icn.make ~latency_cycles:latency ~buses ())

let grid_of_json = function
  | None -> Ok Freqgrid.Unrestricted
  | Some (J.Str "unrestricted") -> Ok Freqgrid.Unrestricted
  | Some (J.Obj _ as j) -> (
    let* steps = int_field j "steps" in
    if steps < 1 then err "grid \"steps\" must be >= 1"
    else if steps > max_grid_steps then
      err "grid \"steps\" must be at most %d" max_grid_steps
    else
      match Option.bind (J.member "kind" j) J.str with
      | Some "uniform" ->
        let* top = q_field j "top" in
        Ok (Freqgrid.uniform ~steps ~top)
      | Some "dividers" ->
        let* base = q_field j "base" in
        Ok (Freqgrid.dividers ~steps ~base)
      | Some k -> err "unknown grid kind %S" k
      | None -> err "grid needs \"kind\": \"uniform\" or \"dividers\"")
  | Some _ -> err "\"grid\" must be \"unrestricted\" or an object"

let of_json j =
  match j with
  | J.Obj _ -> (
    let name =
      Option.value (Option.bind (J.member "name" j) J.str) ~default:"custom"
    in
    match Option.bind (J.member "clusters" j) J.list with
    | None -> err "machine needs a \"clusters\" list"
    | Some [] -> err "machine needs at least one cluster"
    | Some cs ->
      let* clusters =
        List.fold_left
          (fun acc (i, c) ->
            let* acc = acc in
            let* c = cluster_of_json i c in
            Ok (c :: acc))
          (Ok [])
          (List.mapi (fun i c -> (i, c)) cs)
      in
      let clusters = Array.of_list (List.rev clusters) in
      let* icn = icn_of_json (J.member "icn" j) in
      let* grid = grid_of_json (J.member "grid" j) in
      (* Structural validity beyond the constructors: a machine no part
         of which can execute some demanded kind is caught later, per
         workload; a machine with no issue capacity at all is caught
         here. *)
      if
        not
          (List.exists
             (fun k -> Machine.supports { name; clusters; icn; grid } k)
             Hcv_ir.Opcode.all_fu_kinds)
      then err "machine has no functional units on any cluster"
      else Ok (Machine.make ~name ~grid ~clusters ~icn ()))
  | _ -> err "machine description must be a JSON object"

let of_string s =
  match J.of_string s with
  | Error msg -> err "machine description: %s" msg
  | Ok j -> of_json j

let to_json (m : Machine.t) =
  J.Obj
    [
      ("name", J.Str m.Machine.name);
      ( "clusters",
        J.List
          (Array.to_list
             (Array.map
                (fun (c : Cluster.t) ->
                  J.Obj
                    [
                      ("name", J.Str c.Cluster.name);
                      ("int", J.Num (float_of_int c.Cluster.int_fus));
                      ("fp", J.Num (float_of_int c.Cluster.fp_fus));
                      ("mem", J.Num (float_of_int c.Cluster.mem_ports));
                      ("regs", J.Num (float_of_int c.Cluster.registers));
                    ])
                m.Machine.clusters)) );
      ( "icn",
        J.Obj
          [
            ("buses", J.Num (float_of_int m.Machine.icn.Icn.buses));
            ( "latency",
              J.Num (float_of_int m.Machine.icn.Icn.latency_cycles) );
          ] );
      ( "grid",
        match m.Machine.grid with
        | Freqgrid.Unrestricted -> J.Str "unrestricted"
        | Freqgrid.Uniform { steps; top } ->
          J.Obj
            [
              ("kind", J.Str "uniform");
              ("steps", J.Num (float_of_int steps));
              ("top", J.Str (Codec.q_to_string top));
            ]
        | Freqgrid.Dividers { steps; base } ->
          J.Obj
            [
              ("kind", J.Str "dividers");
              ("steps", J.Num (float_of_int steps));
              ("base", J.Str (Codec.q_to_string base));
            ] );
    ]

let to_string m = J.to_string (to_json m)
