(* The hand-rolled JSON codec backing the result cache. *)

open Hcv_explore

let json =
  Alcotest.testable
    (fun ppf j -> Format.pp_print_string ppf (Jsonx.to_string j))
    ( = )

let roundtrip name j =
  match Jsonx.of_string (Jsonx.to_string j) with
  | Ok j' -> Alcotest.check json name j j'
  | Error msg -> Alcotest.failf "%s: parse error: %s" name msg

let test_roundtrip () =
  roundtrip "null" Jsonx.Null;
  roundtrip "bools" (Jsonx.List [ Jsonx.Bool true; Jsonx.Bool false ]);
  roundtrip "integers" (Jsonx.List [ Jsonx.Num 0.; Jsonx.Num (-42.) ]);
  roundtrip "floats"
    (Jsonx.List
       [ Jsonx.Num 0.1; Jsonx.Num 1.0000000000000002; Jsonx.Num 1e-300 ]);
  roundtrip "string escapes"
    (Jsonx.Str "line\nbreak \"quoted\" back\\slash \t \x01");
  roundtrip "nested"
    (Jsonx.Obj
       [
         ("k", Jsonx.Str "abc");
         ("v", Jsonx.List [ Jsonx.Obj [ ("x", Jsonx.Num 3.5) ]; Jsonx.Null ]);
       ])

let test_float_exactness () =
  (* The cache must replay the original bits, not an approximation. *)
  List.iter
    (fun f ->
      match Jsonx.of_string (Jsonx.to_string (Jsonx.Num f)) with
      | Ok (Jsonx.Num f') ->
          Alcotest.(check bool)
            (Printf.sprintf "%h survives" f)
            true
            (Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float f'))
      | Ok _ -> Alcotest.fail "not a number"
      | Error msg -> Alcotest.failf "parse error: %s" msg)
    [ 0.1; 1. /. 3.; 0.8748906986305911; 1e22; 4.9e-324; -0. ]

let test_parse_errors () =
  List.iter
    (fun s ->
      match Jsonx.of_string s with
      | Ok _ -> Alcotest.failf "accepted malformed input %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "\"unterminated"; "1 2"; "{\"a\" 1}" ]

let test_accessors () =
  let j =
    Jsonx.Obj
      [ ("name", Jsonx.Str "x"); ("n", Jsonx.Num 3.); ("xs", Jsonx.List []) ]
  in
  Alcotest.(check (option string)) "str" (Some "x")
    (Option.bind (Jsonx.member "name" j) Jsonx.str);
  Alcotest.(check (option int)) "int" (Some 3)
    (Option.bind (Jsonx.member "n" j) Jsonx.int);
  Alcotest.(check bool) "list" true
    (Option.bind (Jsonx.member "xs" j) Jsonx.list = Some []);
  Alcotest.(check bool) "missing member" true (Jsonx.member "zz" j = None);
  Alcotest.(check (option int)) "int rejects fraction" None
    (Jsonx.int (Jsonx.Num 3.5))

(* A float holds every integer only below 2^53, so [int] refuses any
   literal from there on: it may already have been rounded. *)
let test_int_exact () =
  let int_of s = Option.bind (Result.to_option (Jsonx.of_string s)) Jsonx.int in
  Alcotest.(check (option int)) "2^53 - 1" (Some 9007199254740991)
    (int_of "9007199254740991");
  Alcotest.(check (option int)) "-(2^53 - 1)" (Some (-9007199254740991))
    (int_of "-9007199254740991");
  Alcotest.(check (option int)) "2^53" None (int_of "9007199254740992");
  Alcotest.(check (option int)) "-2^53" None (int_of "-9007199254740992");
  Alcotest.(check (option int)) "rounded on parsing" None
    (int_of "4611686018427387000")

(* Adversarial wire input: what the serving plane feeds the codec. *)

let test_torn_input () =
  (* Every proper prefix of a valid object is itself invalid — torn
     lines must never half-parse into a value. *)
  let whole = {|{"id":"r1","op":"explore","bench":"applu","budget":10}|} in
  for len = 0 to String.length whole - 1 do
    match Jsonx.of_string (String.sub whole 0 len) with
    | Ok _ -> Alcotest.failf "accepted torn prefix of length %d" len
    | Error _ -> ()
  done;
  match Jsonx.of_string whole with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "whole line failed: %s" msg

let test_unicode_escapes () =
  (* \uXXXX escapes decode to UTF-8 bytes... *)
  (match Jsonx.of_string {|"a\u00e9\u0041 \u2028b"|} with
  | Ok (Jsonx.Str s) ->
    Alcotest.(check string) "decoded utf-8" "a\xc3\xa9A \xe2\x80\xa8b" s
  | Ok _ -> Alcotest.fail "not a string"
  | Error msg -> Alcotest.failf "parse error: %s" msg);
  (* ...control characters round-trip through the escape the printer
     emits... *)
  roundtrip "control chars" (Jsonx.Str "\x00\x01\x1f");
  (* ...and truncated or non-hex escapes are structured errors. *)
  List.iter
    (fun s ->
      match Jsonx.of_string s with
      | Ok _ -> Alcotest.failf "accepted bad escape %S" s
      | Error _ -> ())
    [ {|"\u12"|}; {|"\u12g4"|}; {|"\u"|}; {|"\x41"|} ]

let test_trailing_garbage () =
  (* One value per line: anything after a complete value is an error,
     not silently ignored. *)
  List.iter
    (fun s ->
      match Jsonx.of_string s with
      | Ok _ -> Alcotest.failf "accepted trailing garbage in %S" s
      | Error _ -> ())
    [
      {|{"a":1} {"b":2}|};
      {|{"a":1}}|};
      {|{"a":1}]|};
      {|null null|};
      {|42 x|};
      {|{"a":1},|};
    ]

let test_oversized_payload () =
  (* Deep nesting and megabyte-scale atoms must parse (or fail) without
     blowing the stack or corrupting the result. *)
  let big_str = String.make 1_000_000 'x' in
  (match Jsonx.of_string (Jsonx.to_string (Jsonx.Str big_str)) with
  | Ok (Jsonx.Str s) ->
    Alcotest.(check int) "1 MB string survives" 1_000_000 (String.length s)
  | _ -> Alcotest.fail "big string did not round-trip");
  let depth = 5_000 in
  let deep =
    String.concat "" [ String.make depth '['; "1"; String.make depth ']' ]
  in
  (match Jsonx.of_string deep with
  | Ok j ->
    let rec count = function
      | Jsonx.List [ inner ] -> 1 + count inner
      | Jsonx.Num 1.0 -> 0
      | _ -> Alcotest.fail "unexpected shape"
    in
    Alcotest.(check int) "nesting depth preserved" depth (count j)
  | Error msg -> Alcotest.failf "deep nesting rejected: %s" msg);
  (* An unterminated deep payload is an error, not a crash. *)
  match Jsonx.of_string (String.make depth '[') with
  | Ok _ -> Alcotest.fail "accepted unterminated nesting"
  | Error _ -> ()

(* ----- the typed decoder -------------------------------------------- *)

let point =
  Decode.(
    obj "point"
      (let+ x = req "x" int and+ y = dflt "y" 0 (int_in 0 ~max:9) in
       (x, y)))

let shape =
  Decode.(
    obj "shape"
      (let+ name = req "name" string
       and+ points = dflt "points" [] (list point) in
       (name, points)))

let decode text =
  match Jsonx.of_string text with
  | Ok j -> Decode.run shape j
  | Error msg -> Alcotest.failf "%s: %s" text msg

(* Each refusal names the value by its path, and says why. *)
let refused text ~path ~field ~msg =
  match decode text with
  | Ok _ -> Alcotest.failf "accepted %s" text
  | Error e ->
    Alcotest.(check (triple string string string))
      text (path, field, msg)
      (e.Decode.path, e.Decode.field, Decode.message e)

let test_decode () =
  Alcotest.(check (result (pair string (list (pair int int))) reject))
    "declared fields, a default from absence"
    (Ok ("s", [ (1, 0); (2, 3) ]))
    (decode {|{"name":"s","points":[{"x":1},{"x":2,"y":3}]}|});
  refused {|{"points":[]}|} ~path:"name" ~field:"name"
    ~msg:{|shape needs a string "name"|};
  refused {|{"name":5}|} ~path:"name" ~field:"name"
    ~msg:{|field "name" must be a string|};
  refused {|{"name":"s","points":[{"x":1,"y":10}]}|} ~path:"points[0].y"
    ~field:"y" ~msg:{|field "points[0].y" must be an integer in 0..9|};
  refused {|{"name":"s","colour":1}|} ~path:"colour" ~field:"colour"
    ~msg:{|unknown field "colour"|};
  refused {|{"name":"s","name":"t"}|} ~path:"name" ~field:"name"
    ~msg:{|duplicate field "name"|};
  refused {|{"name":"s","points":[{"x":1},{"y":1}]}|} ~path:"points[1].x"
    ~field:"x" ~msg:{|point needs an integer "points[1].x"|};
  (* A mistyped optional field is an error, never its default. *)
  refused {|{"name":"s","points":null}|} ~path:"points" ~field:"points"
    ~msg:{|field "points" must be a list|};
  refused {|{"name":"s","points":[{"x":9007199254740993}]}|}
    ~path:"points[0].x" ~field:"x"
    ~msg:{|field "points[0].x" must be an integer|}

(* A tag picks the field set; [peek] reads one field and skips the
   rest. *)
let test_decode_tagged () =
  let shape =
    Decode.(
      tagged "shape" "kind"
        [
          ("dot", return 0);
          ("bar", let+ n = req "n" (int_in 1) in n);
        ])
  in
  let run ?(d = shape) text =
    Result.map_error Decode.message
      (Decode.run d (Result.get_ok (Jsonx.of_string text)))
  in
  Alcotest.(check (result int string)) "a case" (Ok 3)
    (run {|{"kind":"bar","n":3}|});
  Alcotest.(check (result int string)) "a case's own fields only"
    (Error {|unknown field "n"|})
    (run {|{"kind":"dot","n":3}|});
  Alcotest.(check (result int string)) "the case names the object"
    (Error {|kind "bar" needs a positive integer "n"|})
    (run {|{"kind":"bar"}|});
  Alcotest.(check (result int string)) "an unknown tag"
    (Error {|unknown kind "box"|})
    (run {|{"kind":"box"}|});
  Alcotest.(check (result int string)) "peek skips other keys" (Ok 3)
    (run ~d:Decode.(peek "shape" (req "n" int)) {|{"kind":"bar","n":3,"n":4}|})

let suite =
  [
    Alcotest.test_case "decoder refusals name their path" `Quick test_decode;
    Alcotest.test_case "decoder tags and peeks" `Quick test_decode_tagged;
    Alcotest.test_case "round-trips" `Quick test_roundtrip;
    Alcotest.test_case "float bit-exactness" `Quick test_float_exactness;
    Alcotest.test_case "rejects malformed input" `Quick test_parse_errors;
    Alcotest.test_case "accessors" `Quick test_accessors;
    Alcotest.test_case "int refuses inexact literals" `Quick test_int_exact;
    Alcotest.test_case "torn lines never half-parse" `Quick test_torn_input;
    Alcotest.test_case "unicode escapes" `Quick test_unicode_escapes;
    Alcotest.test_case "trailing garbage rejected" `Quick
      test_trailing_garbage;
    Alcotest.test_case "oversized payloads" `Quick test_oversized_payload;
  ]
