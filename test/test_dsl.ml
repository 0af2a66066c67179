(* The .loop textual format. *)

open Hcv_ir

let parse_one text =
  match Dsl.parse text with
  | Ok [ loop ] -> loop
  | Ok l -> Alcotest.failf "expected 1 loop, got %d" (List.length l)
  | Error e -> Alcotest.failf "parse error: %a" Dsl.pp_error e

let test_basic () =
  let loop =
    parse_one
      {|
# a dot product
loop dot trip 256 weight 0.5
  node a ld.f
  node b ld.f
  node m mul.f
  node s add.f
  edge a m
  edge b m
  edge m s
  edge s s dist 1
end
|}
  in
  Alcotest.(check string) "name" "dot" loop.Loop.name;
  Alcotest.(check int) "trip" 256 loop.Loop.trip;
  Alcotest.(check (float 1e-9)) "weight" 0.5 loop.Loop.weight;
  Alcotest.(check int) "4 nodes" 4 (Ddg.n_instrs loop.Loop.ddg);
  Alcotest.(check int) "4 edges" 4 (Ddg.n_edges loop.Loop.ddg)

let test_edge_options () =
  let loop =
    parse_one
      {|
loop l
  node a st.f
  node b ld.f
  edge a b dist 2 lat 0 kind mem
end
|}
  in
  match Ddg.edges loop.Loop.ddg with
  | [ e ] ->
    Alcotest.(check int) "dist" 2 e.Edge.distance;
    Alcotest.(check int) "lat" 0 e.Edge.latency;
    Alcotest.(check string) "kind" "mem" (Edge.kind_to_string e.Edge.kind)
  | es -> Alcotest.failf "expected 1 edge, got %d" (List.length es)

let expect_error text expected_line =
  match Dsl.parse text with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e -> Alcotest.(check int) "error line" expected_line e.Dsl.line

let test_errors () =
  expect_error "loop l\n  node a bogus.op\nend\n" 2;
  expect_error "loop l\n  edge x y\nend\n" 2;
  expect_error "node a add.i\n" 1;
  expect_error "loop l\n  node a add.i\n  node a add.i\nend\n" 3;
  (* missing end is reported at EOF (the line after the last) *)
  expect_error "loop l\n  node a add.i\n" 3

(* A negative distance or latency is a parse error at the edge's line,
   not an exception out of the DDG builder. *)
let test_negative_edge_fields () =
  expect_error "loop l\n  node a ld.f\n  node b add.f\n  edge a b dist -1\nend\n" 4;
  expect_error "loop l\n  node a ld.f\n  node b add.f\n  edge a b lat -5\nend\n" 4

let test_multiple_loops () =
  match
    Dsl.parse "loop a\n node x add.i\nend\nloop b\n node y add.f\nend\n"
  with
  | Ok loops ->
    Alcotest.(check (list string)) "names" [ "a"; "b" ]
      (List.map (fun (l : Loop.t) -> l.Loop.name) loops)
  | Error e -> Alcotest.failf "parse error: %a" Dsl.pp_error e

let test_roundtrip () =
  let original = Builders.recurrence_loop () in
  let loop = parse_one (Dsl.print original) in
  Alcotest.(check int) "instr count"
    (Ddg.n_instrs original.Loop.ddg)
    (Ddg.n_instrs loop.Loop.ddg);
  Alcotest.(check int) "edge count"
    (Ddg.n_edges original.Loop.ddg)
    (Ddg.n_edges loop.Loop.ddg);
  Alcotest.(check int) "trip" original.Loop.trip loop.Loop.trip;
  (* Re-printing is a fixpoint. *)
  Alcotest.(check string) "print is stable" (Dsl.print original)
    (Dsl.print loop)

let test_roundtrip_generated () =
  (* Round-trip a whole generated population. *)
  let spec = Option.get (Hcv_workload.Specfp.find "galgel") in
  let loops = Hcv_workload.Specfp.loops ~n_loops:4 ~seed:1 spec in
  match Dsl.parse (Dsl.print_all loops) with
  | Ok parsed ->
    Alcotest.(check int) "loop count" (List.length loops) (List.length parsed);
    List.iter2
      (fun (a : Loop.t) (b : Loop.t) ->
        Alcotest.(check string) "name" a.Loop.name b.Loop.name;
        Alcotest.(check int) "instrs" (Ddg.n_instrs a.Loop.ddg)
          (Ddg.n_instrs b.Loop.ddg))
      loops parsed
  | Error e -> Alcotest.failf "parse error: %a" Dsl.pp_error e

let suite =
  [
    Alcotest.test_case "basic parse" `Quick test_basic;
    Alcotest.test_case "edge options" `Quick test_edge_options;
    Alcotest.test_case "errors with line numbers" `Quick test_errors;
    Alcotest.test_case "negative edge fields refused" `Quick
      test_negative_edge_fields;
    Alcotest.test_case "multiple loops" `Quick test_multiple_loops;
    Alcotest.test_case "print/parse roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "generated population roundtrip" `Quick
      test_roundtrip_generated;
  ]
