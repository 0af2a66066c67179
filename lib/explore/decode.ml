type problem =
  | Missing of { obj : string; what : string }
  | Mistyped of string
  | Unknown_field
  | Duplicate_field
  | Unknown_tag of string
  | Invalid of string

type error = { path : string; field : string; problem : problem }

(* A path is built innermost first, one segment per descent, and is
   rendered only when decoding fails. *)
type seg = Key of string | Index of int

exception Fail of seg list * problem

let fail path p = raise (Fail (path, p))

type 'a t = { what : string; run : seg list -> Jsonx.t -> 'a }

let message e =
  match e.problem with
  | Missing { obj; what } -> Printf.sprintf "%s needs %s %S" obj what e.path
  | Mistyped what -> Printf.sprintf "field %S must be %s" e.path what
  | Unknown_field -> Printf.sprintf "unknown field %S" e.path
  | Duplicate_field -> Printf.sprintf "duplicate field %S" e.path
  | Unknown_tag tag -> Printf.sprintf "unknown %s %S" e.path tag
  | Invalid msg -> if e.path = "" then msg else e.path ^ ": " ^ msg

let run ?root d j =
  match d.run (Option.to_list (Option.map (fun r -> Key r) root)) j with
  | x -> Ok x
  | exception Fail (path, problem) ->
    let seg s = function
      | Key k -> if s = "" then k else s ^ "." ^ k
      | Index i -> Printf.sprintf "%s[%d]" s i
    in
    let field = List.find_map (function Key k -> Some k | _ -> None) path in
    let field = Option.value field ~default:"" in
    Error { path = List.fold_left seg "" (List.rev path); field; problem }

let of_string d s =
  Result.bind (Jsonx.of_string s) (fun j -> Result.map_error message (run d j))

(* ----- values ------------------------------------------------------ *)

(* [f] answers [None] for a value that is not [what]. *)
let v what f =
  let run path j =
    match f path j with Some x -> x | None -> fail path (Mistyped what)
  in
  { what; run }

let string = v "a string" (fun _ j -> Jsonx.str j)
let int = v "an integer" (fun _ j -> Jsonx.int j)
let number = v "a number" (fun _ j -> Jsonx.num j)
let bool = v "a boolean" (fun _ -> function Jsonx.Bool b -> Some b | _ -> None)
let json = { what = "a value"; run = (fun _ j -> j) }
let refine what f d = v what (fun path j -> f (d.run path j))
let map f d = { d with run = (fun path j -> f (d.run path j)) }
let union what pick =
  v what (fun path j -> Option.map (fun d -> d.run path j) (pick j))

let int_in ?max lo =
  let what =
    match (max, lo) with
    | Some hi, _ -> Printf.sprintf "an integer in %d..%d" lo hi
    | None, 0 -> "a non-negative integer"
    | None, 1 -> "a positive integer"
    | None, _ -> Printf.sprintf "an integer of at least %d" lo
  in
  let hi = Option.value max ~default:max_int in
  v what (fun _ j ->
      Option.bind (Jsonx.int j) (fun n ->
          if lo <= n && n <= hi then Some n else None))

let enum cases =
  let names = List.map (fun (k, _) -> Printf.sprintf "%S" k) cases in
  v ("one of " ^ String.concat ", " names) (fun _ j ->
      Option.bind (Jsonx.str j) (fun s -> List.assoc_opt s cases))

let list d =
  v "a list" (fun path -> function
    | Jsonx.List xs ->
      Some (List.mapi (fun i x -> d.run (Index i :: path) x) xs)
    | _ -> None)

let non_empty d =
  refine "a non-empty list" (function [] -> None | xs -> Some xs) (list d)

let pair a b =
  v "a two-element list" (fun path -> function
    | Jsonx.List [ x; y ] ->
      let x = a.run (Index 0 :: path) x in
      Some (x, b.run (Index 1 :: path) y)
    | _ -> None)

let nullable d =
  let run path = function Jsonx.Null -> None | j -> Some (d.run path j) in
  { what = d.what ^ " or null"; run }

let assoc d =
  v "an object" (fun path -> function
    | Jsonx.Obj kvs ->
      Some (List.map (fun (k, x) -> (k, d.run (Key k :: path) x)) kvs)
    | _ -> None)

let fix f =
  let rec d = { what = "a value"; run = (fun p j -> (Lazy.force d').run p j) }
  and d' = lazy (f d) in
  d

(* ----- objects ----------------------------------------------------- *)

(* An object's values sit in [slots], one per declared key in
   declaration order, or [absent] (a block no parse returns, compared
   physically); a field set reads its keys from offset [i]. *)
let absent = Jsonx.List [ Jsonx.Null ]

type ctx = { obj : string; path : seg list; slots : Jsonx.t array }
type 'a fields = { keys : string list; get : ctx -> int -> 'a }

let field key read =
  let seg = Key key in
  { keys = [ key ]; get = (fun c i -> read c (seg :: c.path) c.slots.(i)) }

let req key d =
  field key (fun c path j ->
      if j == absent then fail path (Missing { obj = c.obj; what = d.what })
      else d.run path j)

let opt key d =
  field key (fun _ path j -> if j == absent then None else Some (d.run path j))

let dflt key x d =
  field key (fun _ path j -> if j == absent then x else d.run path j)
let return x = { keys = []; get = (fun _ _ -> x) }
let ( let+ ) a f = { a with get = (fun c i -> f (a.get c i)) }

let ( and+ ) a b =
  let n = List.length a.keys in
  let get c i =
    let x = a.get c i in
    (x, b.get c (i + n))
  in
  { keys = a.keys @ b.keys; get }

let check f a =
  let get c i =
    match f (a.get c i) with Ok x -> x | Error m -> fail c.path (Invalid m)
  in
  { a with get }

let rec index keys k i =
  if i = Array.length keys || String.equal keys.(i) k then i
  else index keys k (i + 1)

(* One pass over the keys, each to its slot or refused; a lenient scan
   skips undeclared keys and stops once each declared one is bound. *)
let rec fill ~strict keys path slots left = function
  | [] -> ()
  | (k, x) :: rest ->
    let i = index keys k 0 in
    if i < Array.length keys && slots.(i) == absent then begin
      slots.(i) <- x;
      if strict || left > 1 then fill ~strict keys path slots (left - 1) rest
    end
    else if strict then
      fail (Key k :: path)
        (if i = Array.length keys then Unknown_field else Duplicate_field)
    else fill ~strict keys path slots left rest

let scan ~strict name fs =
  let keys = Array.of_list fs.keys in
  if List.length (List.sort_uniq String.compare fs.keys) <> Array.length keys
  then invalid_arg ("Decode: a key of " ^ name ^ " is declared twice");
  v "an object" (fun path -> function
    | Jsonx.Obj kvs ->
      let slots = Array.make (Array.length keys) absent in
      fill ~strict keys path slots (Array.length keys) kvs;
      Some (fs.get { obj = name; path; slots } 0)
    | _ -> None)

let obj name fs = scan ~strict:true name fs
let peek name fs = scan ~strict:false name fs

let tagged name key cases =
  let tag = peek name (req key string) in
  let case (t, fs) =
    let body = (let+ _ = req key json and+ x = fs in x) in
    (t, obj (Printf.sprintf "%s %S" key t) body)
  in
  let cases = List.map case cases in
  let run path j =
    let t = tag.run path j in
    match List.find_opt (fun (t', _) -> String.equal t t') cases with
    | Some (_, d) -> d.run path j
    | None -> fail (Key key :: path) (Unknown_tag t)
  in
  { what = "an object"; run }
