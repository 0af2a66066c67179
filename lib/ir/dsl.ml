type error = { line : int; msg : string }

let pp_error ppf e = Format.fprintf ppf "line %d: %s" e.line e.msg

exception Parse of error

let fail line fmt = Format.kasprintf (fun msg -> raise (Parse { line; msg })) fmt

let tokenize_line line =
  (* Strip comments, split on whitespace. *)
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

type pending_loop = {
  mutable lname : string;
  mutable trip : int option;
  mutable weight : float option;
  builder : Ddg.Builder.t;
  names : (string, Instr.id) Hashtbl.t;
}

let parse_int lnum what s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail lnum "invalid %s %S" what s

(* Edge distances and latencies are refused here, at their line, rather
   than by the DDG builder's invariant check. *)
let parse_nat lnum what s =
  match int_of_string_opt s with
  | Some v when v >= 0 -> v
  | Some _ -> fail lnum "%s must be non-negative, got %s" what s
  | None -> fail lnum "invalid %s %S" what s

let parse_float lnum what s =
  match float_of_string_opt s with
  | Some v -> v
  | None -> fail lnum "invalid %s %S" what s

(* Parse "key value" option pairs from a token list. *)
let rec parse_opts lnum acc = function
  | [] -> acc
  | [ k ] -> fail lnum "option %S has no value" k
  | k :: v :: rest -> parse_opts lnum ((k, v) :: acc) rest

let lookup_opt opts key = List.assoc_opt key opts

let finish_loop lnum pl =
  let ddg =
    try Ddg.Builder.build pl.builder
    with Invalid_argument msg -> fail lnum "loop %s: %s" pl.lname msg
  in
  try Loop.make ?trip:pl.trip ?weight:pl.weight ~name:pl.lname ddg
  with Invalid_argument msg -> fail lnum "loop %s: %s" pl.lname msg

let parse text =
  let lines = String.split_on_char '\n' text in
  let loops = ref [] in
  let current = ref None in
  try
    List.iteri
      (fun i line ->
        let lnum = i + 1 in
        match (tokenize_line line, !current) with
        | [], _ -> ()
        | "loop" :: name :: opts, None ->
          let opts = parse_opts lnum [] opts in
          let pl =
            {
              lname = name;
              trip = Option.map (parse_int lnum "trip") (lookup_opt opts "trip");
              weight =
                Option.map (parse_float lnum "weight") (lookup_opt opts "weight");
              builder = Ddg.Builder.create ();
              names = Hashtbl.create 16;
            }
          in
          current := Some pl
        | "loop" :: _, Some pl ->
          fail lnum "loop %S not closed before a new one starts" pl.lname
        | [ "loop" ], None -> fail lnum "loop without a name"
        | "node" :: name :: mnemonic :: [], Some pl ->
          if Hashtbl.mem pl.names name then
            fail lnum "duplicate node name %S" name;
          let op =
            match Opcode.of_mnemonic mnemonic with
            | Some op -> op
            | None -> fail lnum "unknown opcode %S" mnemonic
          in
          Hashtbl.replace pl.names name
            (Ddg.Builder.add_instr pl.builder ~name op)
        | "node" :: _, Some _ -> fail lnum "node expects: node <name> <opcode>"
        | "edge" :: src :: dst :: opts, Some pl ->
          let opts = parse_opts lnum [] opts in
          let resolve n =
            match Hashtbl.find_opt pl.names n with
            | Some id -> id
            | None -> fail lnum "unknown node %S" n
          in
          let kind =
            match lookup_opt opts "kind" with
            | None -> None
            | Some "flow" -> Some Edge.Flow
            | Some "anti" -> Some Edge.Anti
            | Some "output" -> Some Edge.Output
            | Some "mem" -> Some Edge.Mem
            | Some other -> fail lnum "unknown edge kind %S" other
          in
          Ddg.Builder.add_edge pl.builder ?kind
            ?distance:(Option.map (parse_nat lnum "dist") (lookup_opt opts "dist"))
            ?latency:(Option.map (parse_nat lnum "lat") (lookup_opt opts "lat"))
            (resolve src) (resolve dst)
        | "edge" :: _, Some _ ->
          fail lnum "edge expects: edge <src> <dst> [dist N] [lat N] [kind K]"
        | [ "end" ], Some pl ->
          loops := finish_loop lnum pl :: !loops;
          current := None
        | ("node" | "edge" | "end") :: _, None ->
          fail lnum "directive outside of a loop block"
        | tok :: _, _ -> fail lnum "unknown directive %S" tok)
      lines;
    (match !current with
    | Some pl -> fail (List.length lines) "loop %S missing `end`" pl.lname
    | None -> ());
    Ok (List.rev !loops)
  with Parse e -> Error e

let parse_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse text
  | exception Sys_error msg -> Error { line = 0; msg }

let mnemonic_of_op (op : Opcode.t) =
  (* First mnemonic mapping to this class. *)
  match
    List.find_opt (fun (_, o) -> Opcode.equal o op) Opcode.mnemonics
  with
  | Some (m, _) -> m
  | None -> assert false (* every class has a mnemonic *)

let print (loop : Loop.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "loop %s trip %d weight %g\n" loop.name loop.trip
       loop.weight);
  let ddg = loop.ddg in
  Array.iter
    (fun (ins : Instr.t) ->
      Buffer.add_string buf
        (Printf.sprintf "  node %s %s\n" ins.name (mnemonic_of_op ins.op)))
    (Ddg.instrs ddg);
  List.iter
    (fun (e : Edge.t) ->
      let name id = (Ddg.instr ddg id).Instr.name in
      Buffer.add_string buf
        (Printf.sprintf "  edge %s %s lat %d dist %d kind %s\n" (name e.src)
           (name e.dst) e.latency e.distance
           (Edge.kind_to_string e.kind)))
    (Ddg.edges ddg);
  Buffer.add_string buf "end\n";
  Buffer.contents buf

let print_all loops = String.concat "\n" (List.map print loops)
