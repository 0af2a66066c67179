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

(* The first position from [i] on whose character is not [ok]. *)
let rec scan st ok i =
  if i < String.length st.s && ok st.s.[i] then scan st ok (i + 1) else i

let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false
let skip_ws st = st.pos <- scan st is_ws st.pos

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> parse_error "expected %c at %d, got %c" c st.pos c'
  | None -> parse_error "expected %c at %d, got end of input" c st.pos

let literal st word v =
  let n = String.length word in
  if st.pos + n > String.length st.s || String.sub st.s st.pos n <> word then
    parse_error "bad literal at %d" st.pos;
  st.pos <- st.pos + n;
  v

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

(* The character a one-letter escape stands for. *)
let unescape st = function
  | ('"' | '\\' | '/') as c -> c
  | 'n' -> '\n'
  | 'r' -> '\r'
  | 't' -> '\t'
  | 'b' -> '\b'
  | 'f' -> '\012'
  | _ -> parse_error "bad escape at %d" st.pos

(* The rest of a string, character by character, escapes decoded. *)
let parse_chars st =
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> parse_error "unterminated string"
    | Some '"' ->
      advance st;
      Buffer.contents buf
    | Some '\\' ->
      advance st;
      (match peek st with
      | Some 'u' ->
        advance st;
        if st.pos + 4 > String.length st.s then
          parse_error "truncated \\u escape";
        let hex = String.sub st.s st.pos 4 in
        (match int_of_string_opt ("0x" ^ hex) with
        | Some code ->
          st.pos <- st.pos + 4;
          add_utf8 buf code
        | None -> parse_error "bad \\u escape %S" hex)
      | Some c ->
        Buffer.add_char buf (unescape st c);
        advance st
      | None -> parse_error "bad escape at %d" st.pos);
      go ()
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

let is_numeric = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let parse_number st =
  let start = st.pos in
  st.pos <- scan st is_numeric start;
  let tok = String.sub st.s start (st.pos - start) in
  match float_of_string_opt tok with
  | Some f -> Num f
  | None -> parse_error "bad number %S at %d" tok start

(* The comma-separated items of a list or an object, up to [close]. *)
let items st close item =
  advance st;
  skip_ws st;
  if st.pos < String.length st.s && st.s.[st.pos] = close then begin
    advance st;
    []
  end
  else
    let rec go acc =
      let v = item st in
      skip_ws st;
      match peek st with
      | Some ',' ->
        advance st;
        go (v :: acc)
      | Some c when c = close ->
        advance st;
        List.rev (v :: acc)
      | _ -> parse_error "expected , or %c at %d" close st.pos
    in
    go []

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> parse_error "unexpected end of input"
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some '[' -> List (items st ']' parse_value)
  | Some '{' ->
    let field st =
      skip_ws st;
      let k = parse_string st in
      skip_ws st;
      expect st ':';
      (k, parse_value st)
    in
    Obj (items st '}' field)
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
    List.find_map
      (fun (k', v) -> if String.equal k k' then Some v else None)
      fields
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
