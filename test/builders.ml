(* Shared loop/machine builders for the test suite.

   The loop builders live in Hcv_check.Gen (the fuzzer and the tests
   must draw DDGs from one place); this module re-exports them plus a
   few machine presets the tests use. *)

open Hcv_ir
open Hcv_machine

let op_add_f = Opcode.make Opcode.Arith Opcode.Fp
let op_add_i = Opcode.make Opcode.Arith Opcode.Int
let op_mul_f = Opcode.make Opcode.Mult Opcode.Fp
let op_div_f = Opcode.make Opcode.Div Opcode.Fp
let op_ld = Opcode.make Opcode.Memory Opcode.Fp
let op_st = Opcode.make Opcode.Memory Opcode.Fp

let dotprod = Hcv_check.Gen.dotprod
let recurrence_loop = Hcv_check.Gen.recurrence_loop
let wide_loop = Hcv_check.Gen.wide_loop
let random_loop = Hcv_check.Gen.random_loop

(* The tick base of a hand-built clocking (always within range). *)
let memo clocking = Result.get_ok (Hcv_sched.Timing.Memo.create clocking)

let machine_1bus = Presets.machine_4c ~buses:1
let machine_2bus = Presets.machine_4c ~buses:2

let single_cluster =
  Machine.make ~name:"single"
    ~clusters:
      [|
        Cluster.make ~name:"big" ~int_fus:4 ~fp_fus:4 ~mem_ports:4
          ~registers:64 ();
      |]
    ~icn:(Icn.make ~buses:1 ())
    ()
