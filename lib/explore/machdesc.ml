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

   [decoder] declares each field's type, range and default; the .mli
   says why [to_string] is canonical. *)

open Hcv_support
open Hcv_machine
module J = Jsonx
open Decode

(* Selection time is linear in a grid's steps, so every boundary a grid
   arrives through caps them; 64 is four times Figure 7's densest
   grid. *)
let max_grid_steps = 64

let count = int_in 0

let rational =
  refine "a positive rational \"num/den\""
    (fun s ->
      Option.bind (Codec.q_of_string s) (fun q ->
          if Q.(zero < q) then Some q else None))
    string

(* A cluster's default name is its position, known only to the list. *)
let cluster =
  obj "cluster"
    (let+ name = opt "name" string
     and+ int_fus = req "int" count
     and+ fp_fus = req "fp" count
     and+ mem_ports = req "mem" count
     and+ registers = dflt "regs" 16 count in
     fun i ->
       let name = Option.value name ~default:(Printf.sprintf "c%d" i) in
       Cluster.make ~name ~int_fus ~fp_fus ~mem_ports ~registers ())

let icn =
  obj "icn"
    (let+ buses = dflt "buses" 1 (int_in 1)
     and+ latency = dflt "latency" 1 (int_in 1) in
     Icn.make ~latency_cycles:latency ~buses ())

let steps = req "steps" (int_in 1 ~max:max_grid_steps)

let grid_object =
  tagged "grid" "kind"
    [
      ( "uniform",
        let+ steps
        and+ top = req "top" rational in
        Freqgrid.uniform ~steps ~top );
      ( "dividers",
        let+ steps
        and+ base = req "base" rational in
        Freqgrid.dividers ~steps ~base );
    ]

let grid =
  let unrestricted = enum [ ("unrestricted", Freqgrid.Unrestricted) ] in
  union "\"unrestricted\" or a grid object" (function
    | J.Str _ -> Some unrestricted
    | J.Obj _ -> Some grid_object
    | _ -> None)

(* Structural validity beyond the constructors: a machine no part of
   which can execute some demanded kind is caught later, per workload;
   a machine with no issue capacity at all is caught here. *)
let decoder =
  refine "a machine with a functional unit"
    (fun m ->
      if List.exists (Machine.supports m) Hcv_ir.Opcode.all_fu_kinds then Some m
      else None)
    (obj "machine"
       (let+ name = dflt "name" "custom" string
        and+ clusters = req "clusters" (non_empty cluster)
        and+ icn = dflt "icn" (Icn.make ~buses:1 ()) icn
        and+ grid = dflt "grid" Freqgrid.Unrestricted grid in
        let clusters = Array.of_list (List.mapi (fun i c -> c i) clusters) in
        Machine.make ~name ~grid ~clusters ~icn ()))

let of_string s = Decode.of_string decoder s

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
