open Hcv_obs

let str_obj kvs = Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Str v)) kvs)
let int_obj kvs =
  Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Num (float_of_int v))) kvs)

(* Volatile gauges and wall clocks always render last so a consumer can
   strip the run-dependent tail and keep the deterministic prefix. *)
let wall_fields (n : Trace.node) =
  [
    ("volatile", Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Num v)) n.volatile));
    ("wall_us", Jsonx.Num (Float.round (n.wall_ns /. 10.0) /. 100.0));
  ]

let rec json_of_node ?(wall = false) (n : Trace.node) =
  Jsonx.Obj
    ([ ("span", Jsonx.Str n.name) ]
    @ (match n.attrs with [] -> [] | a -> [ ("attrs", str_obj a) ])
    @ (match n.counters with [] -> [] | c -> [ ("counters", int_obj c) ])
    @ (match n.children with
      | [] -> []
      | cs ->
        [ ("children", Jsonx.List (List.map (json_of_node ~wall) cs)) ])
    @ if wall then wall_fields n else [])

let node =
  Decode.(
    fix (fun node ->
        obj "span"
          (let+ name = req "span" string
           and+ attrs = dflt "attrs" [] (assoc string)
           and+ counters = dflt "counters" [] (assoc int)
           and+ children = dflt "children" [] (list node)
           and+ volatile = dflt "volatile" [] (assoc number)
           and+ wall_ns = dflt "wall_us" 0.0 (map (( *. ) 1e3) number) in
           { Trace.name; attrs; counters; volatile; wall_ns; children })))

let jsonl ?(wall = false) node =
  let rec go depth acc (n : Trace.node) =
    let line =
      Jsonx.to_string
        (Jsonx.Obj
           ([
              ("depth", Jsonx.Num (float_of_int depth));
              ("span", Jsonx.Str n.name);
            ]
           @ (match n.attrs with [] -> [] | a -> [ ("attrs", str_obj a) ])
           @ (match n.counters with
             | [] -> []
             | c -> [ ("counters", int_obj c) ])
           @ if wall then wall_fields n else []))
    in
    List.fold_left (go (depth + 1)) (line :: acc) n.children
  in
  List.rev (go 0 [] node)

let write_jsonl ?wall ~path node =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun line ->
          output_string oc line;
          output_char oc '\n')
        (jsonl ?wall node))
