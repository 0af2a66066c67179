type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ----- printing --------------------------------------------------- *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    (* Keep small integers readable; exact by construction. *)
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> Buffer.add_string buf (float_to_string f)
  | Str s -> escape buf s
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape buf k;
        Buffer.add_char buf ':';
        emit buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 128 in
  emit buf v;
  Buffer.contents buf

(* ----- parsing ---------------------------------------------------- *)

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type state = { s : string; mutable pos : int }

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  let rec go () =
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      go ()
    | _ -> ()
  in
  go ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> parse_error "expected %c at %d, got %c" c st.pos c'
  | None -> parse_error "expected %c at %d, got end of input" c st.pos

let literal st word v =
  let n = String.length word in
  if
    st.pos + n <= String.length st.s
    && String.sub st.s st.pos n = word
  then begin
    st.pos <- st.pos + n;
    v
  end
  else parse_error "bad literal at %d" st.pos

let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

(* The rest of a string, character by character, escapes decoded. *)
let parse_chars st =
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> parse_error "unterminated string"
    | Some '"' ->
      advance st;
      Buffer.contents buf
    | Some '\\' -> (
      advance st;
      match peek st with
      | Some '"' ->
        advance st;
        Buffer.add_char buf '"';
        go ()
      | Some '\\' ->
        advance st;
        Buffer.add_char buf '\\';
        go ()
      | Some '/' ->
        advance st;
        Buffer.add_char buf '/';
        go ()
      | Some 'n' ->
        advance st;
        Buffer.add_char buf '\n';
        go ()
      | Some 'r' ->
        advance st;
        Buffer.add_char buf '\r';
        go ()
      | Some 't' ->
        advance st;
        Buffer.add_char buf '\t';
        go ()
      | Some 'b' ->
        advance st;
        Buffer.add_char buf '\b';
        go ()
      | Some 'f' ->
        advance st;
        Buffer.add_char buf '\012';
        go ()
      | Some 'u' ->
        advance st;
        if st.pos + 4 > String.length st.s then
          parse_error "truncated \\u escape";
        let hex = String.sub st.s st.pos 4 in
        (match int_of_string_opt ("0x" ^ hex) with
        | Some code ->
          st.pos <- st.pos + 4;
          add_utf8 buf code;
          go ()
        | None -> parse_error "bad \\u escape %S" hex)
      | _ -> parse_error "bad escape at %d" st.pos)
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      go ()
  in
  go ()

(* Most strings hold no escape: one scan finds the closing quote and one
   copy takes them.  Any other string goes to [parse_chars] whole. *)
let parse_string st =
  expect st '"';
  let n = String.length st.s in
  let rec plain i =
    if i < n && st.s.[i] <> '"' && st.s.[i] <> '\\' then plain (i + 1) else i
  in
  let stop = plain st.pos in
  if stop < n && st.s.[stop] = '"' then begin
    let s = String.sub st.s st.pos (stop - st.pos) in
    st.pos <- stop + 1;
    s
  end
  else parse_chars st

let parse_number st =
  let start = st.pos in
  let rec go () =
    match peek st with
    | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') ->
      advance st;
      go ()
    | _ -> ()
  in
  go ();
  let tok = String.sub st.s start (st.pos - start) in
  match float_of_string_opt tok with
  | Some f -> Num f
  | None -> parse_error "bad number %S at %d" tok start

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> parse_error "unexpected end of input"
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      List []
    end
    else begin
      let rec items acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          items (v :: acc)
        | Some ']' ->
          advance st;
          List.rev (v :: acc)
        | _ -> parse_error "expected , or ] at %d" st.pos
      in
      List (items [])
    end
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let field () =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        (k, v)
      in
      let rec fields acc =
        let kv = field () in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          fields (kv :: acc)
        | Some '}' ->
          advance st;
          List.rev (kv :: acc)
        | _ -> parse_error "expected , or } at %d" st.pos
      in
      Obj (fields [])
    end
  | Some ('0' .. '9' | '-') -> parse_number st
  | Some c -> parse_error "unexpected character %c at %d" c st.pos

let of_string s =
  let st = { s; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos <> String.length s then
      Error (Printf.sprintf "trailing garbage at %d" st.pos)
    else Ok v
  | exception Parse_error msg -> Error msg

(* ----- accessors -------------------------------------------------- *)

let member k = function
  | Obj fields ->
    (* [String.equal], not the polymorphic compare [List.assoc_opt] uses:
       a cached outcome's decode makes a dozen lookups. *)
    let rec find = function
      | [] -> None
      | (k', v) :: rest -> if String.equal k k' then Some v else find rest
    in
    find fields
  | _ -> None
let str = function Str s -> Some s | _ -> None
let num = function Num f -> Some f | _ -> None

(* Every number parses to a float, which holds every integer only below
   2^53: past that a literal may already have been rounded. *)
let int = function
  | Num f when Float.is_integer f && Float.abs f < 0x1p53 ->
    Some (int_of_float f)
  | _ -> None

let list = function List xs -> Some xs | _ -> None
