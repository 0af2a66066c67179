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

(* So is one above the stated maximum: these values used to wrap the
   schedulers' integer arithmetic (a consumer four cycles after its
   producer, or an assertion failure in the recurrence analysis). *)
let test_edge_fields_bounded () =
  let three edges =
    "loop acc trip 100\n  node a ld.f\n  node b add.f\n  node c add.f\n"
    ^ edges ^ "end\n"
  in
  expect_error
    (three
       "  edge a b lat 4611686018427387000\n  edge b c\n  edge c b dist 1\n")
    5;
  expect_error
    (three "  edge a b\n  edge b c\n  edge c a dist 4611686018427387000\n")
    7;
  let at v =
    Printf.sprintf "  edge a b lat %d\n  edge b c\n  edge c a dist %d\n" v v
  in
  expect_error (three (at (Dsl.max_edge_value + 1))) 5;
  ignore (parse_one (three (at Dsl.max_edge_value)))

(* Recurrences whose edges sit at the bound keep Cycle_ratio exact: every
   simple cycle of up to 16 edges at equal near-bound values, the
   17-edge cycle at lat 240 and dist 245 and the 319-edge one at lat 19
   and dist 18 that its earlier bisection failed on, and a 100-edge
   cycle closed by one loop-carried edge. *)
let test_bound_keeps_cycle_ratio_exact () =
  let cycle ~m ~lat ~dist ~carried =
    let b = Ddg.Builder.create () in
    let ids =
      Array.init m (fun _ ->
          Ddg.Builder.add_instr b (Opcode.make Opcode.Arith Opcode.Int))
    in
    for i = 0 to m - 1 do
      let distance = if carried i then dist else 0 in
      Ddg.Builder.add_edge b ~latency:lat ~distance ids.(i) ids.((i + 1) mod m)
    done;
    Ddg.Builder.build b
  in
  let check ~m ~lat ~dist ~carried ~n_carried =
    let want = Hcv_support.Q.make (m * lat) (n_carried * dist) in
    let ddg = cycle ~m ~lat ~dist ~carried in
    match Cycle_ratio.exact_over ddg (List.init m Fun.id) with
    | Some q ->
      Alcotest.(check string)
        (Printf.sprintf "%d edges, lat %d, dist %d" m lat dist)
        (Hcv_support.Q.to_string want) (Hcv_support.Q.to_string q)
    | None -> Alcotest.fail "a cycle has a ratio"
  in
  let top = Dsl.max_edge_value in
  List.iter
    (fun (lat, dist) ->
      for m = 1 to 16 do
        check ~m ~lat ~dist ~carried:(fun _ -> true) ~n_carried:m
      done)
    [ (top, top); (top, top - 2); (top - 1, top); (240, 245) ];
  check ~m:17 ~lat:240 ~dist:245 ~carried:(fun _ -> true) ~n_carried:17;
  check ~m:319 ~lat:19 ~dist:18 ~carried:(fun _ -> true) ~n_carried:319;
  List.iter
    (fun dist ->
      check ~m:100 ~lat:top ~dist ~carried:(fun i -> i = 99) ~n_carried:1)
    [ top; top - 2 ]

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
    Alcotest.test_case "edge fields above the maximum refused" `Quick
      test_edge_fields_bounded;
    Alcotest.test_case "the maximum keeps recurrence ratios exact" `Quick
      test_bound_keeps_cycle_ratio_exact;
    Alcotest.test_case "multiple loops" `Quick test_multiple_loops;
    Alcotest.test_case "print/parse roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "generated population roundtrip" `Quick
      test_roundtrip_generated;
  ]
