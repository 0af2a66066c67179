(* Schedule serialisation round-trips. *)

open Hcv_support
open Hcv_sched

let machine = Builders.machine_1bus

let sched_of loop =
  match Homo.schedule ~machine ~cycle_time:Q.one ~loop () with
  | Ok (s, _) -> s
  | Error msg -> Alcotest.failf "scheduling failed: %s" msg

let test_roundtrip () =
  List.iter
    (fun loop ->
      let sched = sched_of loop in
      let text = Serialize.to_string sched in
      match Serialize.of_string ~machine ~loop text with
      | Error msg -> Alcotest.failf "%s: %s" loop.Hcv_ir.Loop.name msg
      | Ok sched2 ->
        Alcotest.(check bool) "same placements" true
          (sched.Schedule.placements = sched2.Schedule.placements);
        Alcotest.(check bool) "same transfers" true
          (sched.Schedule.transfers = sched2.Schedule.transfers);
        Alcotest.(check bool) "same clocking" true
          (Clocking.equal sched.Schedule.clocking sched2.Schedule.clocking))
    [ Builders.dotprod (); Builders.recurrence_loop (); Builders.wide_loop () ]

let test_hetero_roundtrip () =
  (* A heterogeneous clocking survives the fractional cycle times. *)
  let loop = Builders.dotprod () in
  let pt ct = { Hcv_machine.Opconfig.cycle_time = ct; vdd = 1.0 } in
  let config =
    Hcv_machine.Opconfig.make ~machine
      ~cluster_points:[| pt (Q.make 9 10); pt (Q.make 27 20); pt (Q.make 27 20); pt (Q.make 27 20) |]
      ~icn_point:(pt (Q.make 9 10))
      ~cache_point:(pt (Q.make 9 10))
  in
  let it = Q.mul_int (Q.make 27 10) 2 in
  match Clocking.of_config ~config ~it with
  | Error _ -> Alcotest.fail "clocking failed"
  | Ok clocking -> (
    let assignment = Array.make (Hcv_ir.Ddg.n_instrs loop.Hcv_ir.Loop.ddg) 0 in
    match Slot_sched.run ~memo:(Builders.memo clocking) ~machine ~loop ~assignment () with
    | Error f -> Alcotest.failf "failed: %s" (Slot_sched.failure_to_string f)
    | Ok sched -> (
      match Serialize.of_string ~machine ~loop (Serialize.to_string sched) with
      | Error msg -> Alcotest.failf "roundtrip: %s" msg
      | Ok sched2 ->
        Alcotest.(check bool) "clocking preserved" true
          (Clocking.equal sched.Schedule.clocking sched2.Schedule.clocking)))

let test_rejects_garbage () =
  let loop = Builders.dotprod () in
  (match Serialize.of_string ~machine ~loop "bogus directive\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an error");
  (match Serialize.of_string ~machine ~loop "it 3\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing domains must fail");
  (* A tampered placement that breaks a dependence is rejected by
     validation. *)
  let sched = sched_of loop in
  let text = Serialize.to_string sched in
  let tampered =
    String.split_on_char '\n' text
    |> List.map (fun l ->
           if String.length l > 9 && String.sub l 2 7 = "place s" then
             "  place s 0 0"
           else l)
    |> String.concat "\n"
  in
  match Serialize.of_string ~machine ~loop tampered with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tampered schedule must fail validation"

let suite =
  [
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "heterogeneous roundtrip" `Quick test_hetero_roundtrip;
    Alcotest.test_case "rejects garbage" `Quick test_rejects_garbage;
  ]
