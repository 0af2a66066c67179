(* Pure Pareto-dominance core.  See frontier.mli for the contract. *)

module Jsonx = Hcv_explore.Jsonx
module Floatfmt = Hcv_support.Floatfmt

type objective = Time | Energy | Ed2 | Edp | Power

let all_objectives = [ Time; Energy; Ed2; Edp; Power ]

let objective_name = function
  | Time -> "time"
  | Energy -> "energy"
  | Ed2 -> "ed2"
  | Edp -> "edp"
  | Power -> "power"

let objective_names = List.map (fun o -> (objective_name o, o)) all_objectives
let objective_of_string s = List.assoc_opt s objective_names

let rank = function Time -> 0 | Energy -> 1 | Ed2 -> 2 | Edp -> 3 | Power -> 4

type vec = {
  time_ns : float;
  energy : float;
  ed2 : float;
  edp : float;
  power : float;
}

(* [energy *. t *. t] left-associates exactly like Select's
   [predicted_ed2 = (e_clusters +. e_icn +. e_cache) *. time *. time],
   so the ed2 component is bit-identical to the legacy score. *)
let vec ~time_ns ~energy =
  {
    time_ns;
    energy;
    ed2 = energy *. time_ns *. time_ns;
    edp = energy *. time_ns;
    power = energy /. time_ns;
  }

let value v = function
  | Time -> v.time_ns
  | Energy -> v.energy
  | Ed2 -> v.ed2
  | Edp -> v.edp
  | Power -> v.power

type cap = { cap : objective; bound : float }

let cap_to_string c =
  Printf.sprintf "%s<=%s" (objective_name c.cap) (Floatfmt.compact c.bound)

let cap_of_string s =
  let split sep =
    match String.index_opt s sep.[0] with
    | Some i
      when i + String.length sep <= String.length s
           && String.sub s i (String.length sep) = sep ->
        Some
          ( String.sub s 0 i,
            String.sub s
              (i + String.length sep)
              (String.length s - i - String.length sep) )
    | _ -> None
  in
  let parts =
    match split "<=" with Some p -> Some p | None -> split "="
  in
  match parts with
  | None -> Error (Printf.sprintf "cap %S: expected OBJECTIVE<=BOUND" s)
  | Some (name, bound) -> (
      let name = String.trim name and bound = String.trim bound in
      match objective_of_string name with
      | None ->
          Error
            (Printf.sprintf "cap %S: unknown objective %S (one of %s)" s name
               (String.concat "/" (List.map objective_name all_objectives)))
      | Some cap -> (
          match float_of_string_opt bound with
          | Some b when Float.is_finite b && b > 0.0 -> Ok { cap; bound = b }
          | _ ->
              Error
                (Printf.sprintf "cap %S: bound %S is not a positive number" s
                   bound)))

(* NaN components compare false against any bound, so a NaN vector is
   never feasible under a cap on that component — exactly what we want
   for degenerate predictions. *)
let feasible ~caps v = List.for_all (fun c -> value v c.cap <= c.bound) caps

let dominates ~objectives a b =
  List.for_all (fun o -> value a o <= value b o) objectives
  && List.exists (fun o -> value a o < value b o) objectives

type spec = { objectives : objective list; caps : cap list }

let spec ?(objectives = all_objectives) ?(caps = []) () =
  if objectives = [] then invalid_arg "Frontier.spec: empty objective list";
  let objectives =
    List.filter (fun o -> List.mem o objectives) all_objectives
  in
  let caps =
    List.sort_uniq
      (fun a b ->
        match compare (rank a.cap) (rank b.cap) with
        | 0 -> compare a.bound b.bound
        | c -> c)
      caps
  in
  { objectives; caps }

let default_spec = spec ()

let spec_key s =
  let objs = String.concat "," (List.map objective_name s.objectives) in
  let caps =
    List.map
      (fun c ->
        Printf.sprintf "%s<=%s" (objective_name c.cap)
          (Hcv_explore.Codec.float_to_string c.bound))
      s.caps
  in
  String.concat "|" (objs :: caps)

let spec_to_json s =
  Jsonx.Obj
    [
      ( "objectives",
        Jsonx.List
          (List.map (fun o -> Jsonx.Str (objective_name o)) s.objectives) );
      ( "caps",
        Jsonx.List
          (List.map
             (fun c ->
               Jsonx.List
                 [ Jsonx.Str (objective_name c.cap); Jsonx.Num c.bound ])
             s.caps) );
    ]

let objective = Hcv_explore.Decode.enum objective_names

let spec_fields =
  let open Hcv_explore.Decode in
  let+ objectives = dflt "objectives" all_objectives (non_empty objective)
  and+ caps =
    dflt "caps" []
      (list
         (refine "a [NAME, BOUND] pair with a positive finite bound"
            (fun (cap, bound) ->
              if Float.is_finite bound && bound > 0.0 then Some { cap; bound }
              else None)
            (pair objective number)))
  in
  spec ~objectives ~caps ()

type 'a entry = { item : 'a; fvec : vec; index : int }

type 'a t = {
  fspec : spec;
  (* non-dominated members, descending index (cheap cons); [members]
     re-reverses *)
  rev_members : 'a entry list;
  considered : int;
  infeasible : int;
}

let empty fspec = { fspec; rev_members = []; considered = 0; infeasible = 0 }

let add t ~vec:v item =
  let considered = t.considered + 1 in
  if not (feasible ~caps:t.fspec.caps v) then
    { t with considered; infeasible = t.infeasible + 1 }
  else if
    List.exists
      (fun m -> dominates ~objectives:t.fspec.objectives m.fvec v)
      t.rev_members
  then { t with considered }
  else
    let survivors =
      List.filter
        (fun m -> not (dominates ~objectives:t.fspec.objectives v m.fvec))
        t.rev_members
    in
    let entry = { item; fvec = v; index = considered - 1 } in
    { t with considered; rev_members = entry :: survivors }

let of_list fspec points =
  List.fold_left (fun t (item, v) -> add t ~vec:v item) (empty fspec) points

let spec_of t = t.fspec
let members t = List.rev t.rev_members
let size t = List.length t.rev_members
let considered t = t.considered
let infeasible t = t.infeasible

let min_by t obj =
  (* Strict < over ascending-index members keeps the earliest minimum —
     the same tie-break as Select.better. *)
  List.fold_left
    (fun best m ->
      match best with
      | None -> Some m
      | Some b -> if value m.fvec obj < value b.fvec obj then Some m else best)
    None (members t)

let pp_vec ppf v =
  Format.fprintf ppf "T=%s ns E=%s ED2=%s EDP=%s P=%s"
    (Floatfmt.compact v.time_ns)
    (Floatfmt.compact v.energy) (Floatfmt.compact v.ed2)
    (Floatfmt.compact v.edp) (Floatfmt.compact v.power)
