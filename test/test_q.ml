(* Exact rational arithmetic. *)

open Hcv_support

let q = Alcotest.testable Q.pp Q.equal

let test_normalisation () =
  Alcotest.(check q) "6/4 = 3/2" (Q.make 3 2) (Q.make 6 4);
  Alcotest.(check q) "-6/-4 = 3/2" (Q.make 3 2) (Q.make (-6) (-4));
  Alcotest.(check q) "6/-4 = -3/2" (Q.make (-3) 2) (Q.make 6 (-4));
  Alcotest.(check q) "0/7 = 0" Q.zero (Q.make 0 7);
  Alcotest.check_raises "zero denominator"
    (Invalid_argument "Q.make: zero denominator") (fun () ->
      ignore (Q.make 1 0))

let test_arith () =
  Alcotest.(check q) "1/2 + 1/3" (Q.make 5 6) (Q.add (Q.make 1 2) (Q.make 1 3));
  Alcotest.(check q) "1/2 - 1/3" (Q.make 1 6) (Q.sub (Q.make 1 2) (Q.make 1 3));
  Alcotest.(check q) "2/3 * 3/4" (Q.make 1 2) (Q.mul (Q.make 2 3) (Q.make 3 4));
  Alcotest.(check q) "1/2 / 1/4" (Q.of_int 2) (Q.div (Q.make 1 2) (Q.make 1 4));
  Alcotest.(check q) "inv 3/5" (Q.make 5 3) (Q.inv (Q.make 3 5));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Q.div Q.one Q.zero))

let test_floor_ceil () =
  Alcotest.(check int) "floor 7/2" 3 (Q.floor (Q.make 7 2));
  Alcotest.(check int) "ceil 7/2" 4 (Q.ceil (Q.make 7 2));
  Alcotest.(check int) "floor -7/2" (-4) (Q.floor (Q.make (-7) 2));
  Alcotest.(check int) "ceil -7/2" (-3) (Q.ceil (Q.make (-7) 2));
  Alcotest.(check int) "floor 4" 4 (Q.floor (Q.of_int 4));
  Alcotest.(check int) "ceil 4" 4 (Q.ceil (Q.of_int 4))

let test_compare () =
  Alcotest.(check bool) "1/3 < 1/2" true Q.(Q.make 1 3 < Q.make 1 2);
  Alcotest.(check bool) "2/4 = 1/2" true (Q.equal (Q.make 2 4) (Q.make 1 2));
  Alcotest.(check q) "min" (Q.make 1 3) (Q.min (Q.make 1 3) (Q.make 1 2));
  Alcotest.(check q) "max" (Q.make 1 2) (Q.max (Q.make 1 3) (Q.make 1 2))

let test_of_float_approx () =
  Alcotest.(check q) "0.5" (Q.make 1 2) (Q.of_float_approx 0.5);
  Alcotest.(check q) "1.25" (Q.make 5 4) (Q.of_float_approx 1.25);
  Alcotest.(check q) "integers" (Q.of_int 7) (Q.of_float_approx 7.0);
  (* 1/3 is not exactly representable; the approximation must be
     closer than 1e-6. *)
  let approx = Q.of_float_approx (1.0 /. 3.0) in
  Alcotest.(check bool) "1/3 approx" true
    (Float.abs (Q.to_float approx -. (1.0 /. 3.0)) < 1e-6)

let test_gcd_lcm () =
  Alcotest.(check int) "gcd 12 18" 6 (Q.gcd 12 18);
  Alcotest.(check int) "gcd 0 5" 5 (Q.gcd 0 5);
  Alcotest.(check int) "gcd -12 18" 6 (Q.gcd (-12) 18);
  Alcotest.(check int) "lcm 4 6" 12 (Q.lcm 4 6);
  Alcotest.(check int) "lcm 0 6" 0 (Q.lcm 0 6)

(* Near-max_int operands: the naive cross-multiplying implementations
   overflowed silently here; the gcd-normalised ones must stay exact
   whenever the reduced result fits in a native int. *)
let test_overflow () =
  let big = max_int / 2 in
  (* (big/3) * (3/big) = 1: gcd reduction before multiplying *)
  Alcotest.(check q) "huge mul cancels" Q.one
    (Q.mul (Q.make big 3) (Q.make 3 big));
  (* a + (-a) at a huge denominator *)
  let a = Q.make 1 big in
  Alcotest.(check q) "huge add cancels" Q.zero (Q.add a (Q.neg a));
  (* n/(n+1) vs (n-1)/n at huge n: cross products ~ max_int^2/4 would
     overflow; the exact comparison must still order them correctly *)
  let lo = Q.make (big - 1) big and hi = Q.make big (big + 1) in
  Alcotest.(check int) "huge compare <" (-1) (Q.compare lo hi);
  Alcotest.(check int) "huge compare >" 1 (Q.compare hi lo);
  Alcotest.(check int) "huge compare =" 0 (Q.compare hi hi);
  Alcotest.(check bool) "huge max picks the larger" true
    (Q.equal hi (Q.max lo hi));
  (* common-denominator add: d1 = den, no cross product at all *)
  Alcotest.(check q) "huge same-den add"
    (Q.make 2 big)
    (Q.add (Q.make 1 big) (Q.make 1 big));
  (* sub mirroring add *)
  Alcotest.(check q) "huge sub" (Q.make 1 big)
    (Q.sub (Q.make 2 big) (Q.make 1 big));
  (* near-max integer fast paths *)
  Alcotest.(check int) "floor of huge int" big (Q.floor (Q.of_int big));
  Alcotest.(check int) "huge int compare" 1
    (Q.compare (Q.of_int big) (Q.of_int (big - 1)))

(* gcd/lcm at the extreme ends of the int range. *)
let test_gcd_boundaries () =
  Alcotest.(check int) "gcd max_int max_int" max_int (Q.gcd max_int max_int);
  Alcotest.(check int) "gcd max_int 1" 1 (Q.gcd max_int 1);
  Alcotest.(check int) "gcd max_int 0" max_int (Q.gcd max_int 0);
  (* max_int = 2^62 - 1 = 3 * 715827883 * 2147483647 *)
  Alcotest.(check int) "gcd max_int 3" 3 (Q.gcd max_int 3);
  Alcotest.(check int) "gcd max_int 7" 1 (Q.gcd max_int 7);
  Alcotest.(check bool) "gcd of negatives is non-negative" true
    (Q.gcd (-12) (-18) = 6);
  Alcotest.(check int) "gcd 1 1" 1 (Q.gcd 1 1);
  Alcotest.(check int) "gcd 0 0" 0 (Q.gcd 0 0);
  Alcotest.(check int) "lcm max_int 1" max_int (Q.lcm max_int 1);
  Alcotest.(check int) "lcm max_int max_int" max_int (Q.lcm max_int max_int);
  Alcotest.(check int) "lcm 3 max_int" max_int (Q.lcm 3 max_int);
  (* make at the boundary stays in normal form *)
  let m = Q.make max_int max_int in
  Alcotest.(check q) "max_int/max_int = 1" Q.one m;
  let h = Q.make max_int 2 in
  Alcotest.(check int) "max_int/2 num" max_int (Q.num h);
  Alcotest.(check int) "max_int/2 den" 2 (Q.den h);
  (* both rounding helpers used to overflow on the adjustment term
     [p + q - 1] with p near max_int *)
  Alcotest.(check int) "floor max_int/2" (max_int / 2) (Q.floor h);
  Alcotest.(check int) "ceil max_int/2" ((max_int / 2) + 1) (Q.ceil h);
  let nh = Q.make (-max_int) 2 in
  Alcotest.(check int) "floor -max_int/2" (-((max_int / 2) + 1)) (Q.floor nh);
  Alcotest.(check int) "ceil -max_int/2" (-(max_int / 2)) (Q.ceil nh)

(* Mixed-sign rationals through every operation class. *)
let test_mixed_sign () =
  let a = Q.make (-1) 3 and b = Q.make 1 2 in
  Alcotest.(check q) "-1/3 + 1/2" (Q.make 1 6) (Q.add a b);
  Alcotest.(check q) "-1/3 - 1/2" (Q.make (-5) 6) (Q.sub a b);
  Alcotest.(check q) "-1/3 * 1/2" (Q.make (-1) 6) (Q.mul a b);
  Alcotest.(check q) "-1/3 / 1/2" (Q.make (-2) 3) (Q.div a b);
  Alcotest.(check q) "neg * neg" (Q.make 1 6) (Q.mul a (Q.neg b));
  Alcotest.(check q) "inv of negative" (Q.make (-3) 1) (Q.inv a);
  Alcotest.(check int) "sign -1/3" (-1) (Q.sign a);
  Alcotest.(check int) "sign 0" 0 (Q.sign Q.zero);
  Alcotest.(check bool) "-1/3 < 1/2" true Q.(a < b);
  Alcotest.(check bool) "-1/2 < -1/3" true Q.(Q.neg b < a);
  Alcotest.(check q) "min across zero" a (Q.min a b);
  Alcotest.(check q) "max across zero" b (Q.max a b);
  Alcotest.(check bool) "-4/2 is an integer" true
    (Q.is_integer (Q.make (-4) 2));
  Alcotest.(check int) "floor -1/3" (-1) (Q.floor a);
  Alcotest.(check int) "ceil -1/3" 0 (Q.ceil a);
  (* fused ops with a negative divisor flip the rounding direction *)
  Alcotest.(check int) "floor_div 7/2 by -1" (-4)
    (Q.floor_div (Q.make 7 2) (Q.of_int (-1)));
  Alcotest.(check int) "ceil_div 7/2 by -1" (-3)
    (Q.ceil_div (Q.make 7 2) (Q.of_int (-1)));
  Alcotest.(check q) "mul_int negative" (Q.make 2 3)
    (Q.mul_int a (-2));
  Alcotest.(check q) "div_int negative" (Q.make 1 6)
    (Q.div_int a (-2))

let test_fused_ops () =
  Alcotest.(check int) "ceil_div 7/2 / 1" 4
    (Q.ceil_div (Q.make 7 2) Q.one);
  Alcotest.(check int) "floor_div 7/2 / 1" 3
    (Q.floor_div (Q.make 7 2) Q.one);
  Alcotest.(check int) "ceil_div -7/2 / 1" (-3)
    (Q.ceil_div (Q.make (-7) 2) Q.one);
  Alcotest.check_raises "ceil_div by zero" Division_by_zero (fun () ->
      ignore (Q.ceil_div Q.one Q.zero))

(* Property tests. *)

let arb_q =
  QCheck.map
    (fun (n, d) -> Q.make n d)
    (QCheck.pair (QCheck.int_range (-1000) 1000) (QCheck.int_range 1 1000))

let prop_add_comm =
  QCheck.Test.make ~name:"add commutative" ~count:200 (QCheck.pair arb_q arb_q)
    (fun (a, b) -> Q.equal (Q.add a b) (Q.add b a))

let prop_mul_assoc =
  QCheck.Test.make ~name:"mul associative" ~count:200
    (QCheck.triple arb_q arb_q arb_q) (fun (a, b, c) ->
      Q.equal (Q.mul (Q.mul a b) c) (Q.mul a (Q.mul b c)))

let prop_floor_ceil =
  QCheck.Test.make ~name:"floor <= q <= ceil, within 1" ~count:200 arb_q
    (fun a ->
      let f = Q.floor a and c = Q.ceil a in
      Q.(of_int f <= a) && Q.(a <= of_int c) && c - f <= 1)

let prop_sub_add_inverse =
  QCheck.Test.make ~name:"a - b + b = a" ~count:200 (QCheck.pair arb_q arb_q)
    (fun (a, b) -> Q.equal (Q.add (Q.sub a b) b) a)

let prop_normal_form =
  QCheck.Test.make ~name:"results are in normal form" ~count:200
    (QCheck.pair arb_q arb_q) (fun (a, b) ->
      let r = Q.add a b in
      Q.den r > 0 && Q.gcd (Q.num r) (Q.den r) = 1)

let prop_compare_vs_float =
  QCheck.Test.make ~name:"compare agrees with cross-multiplication"
    ~count:500 (QCheck.pair arb_q arb_q) (fun (a, b) ->
      (* small operands: the naive cross product is exact and must agree *)
      let naive =
        Stdlib.compare (Q.num a * Q.den b) (Q.num b * Q.den a)
      in
      Stdlib.compare (Q.compare a b) 0 = Stdlib.compare naive 0)

let prop_fused_div =
  QCheck.Test.make ~name:"ceil_div/floor_div agree with ceil/floor of div"
    ~count:500
    (QCheck.pair arb_q arb_q) (fun (a, b) ->
      QCheck.assume (Q.sign b <> 0);
      Q.ceil_div a b = Q.ceil (Q.div a b)
      && Q.floor_div a b = Q.floor (Q.div a b))

let suite =
  [
    Alcotest.test_case "normalisation" `Quick test_normalisation;
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "floor/ceil" `Quick test_floor_ceil;
    Alcotest.test_case "comparisons" `Quick test_compare;
    Alcotest.test_case "of_float_approx" `Quick test_of_float_approx;
    Alcotest.test_case "gcd/lcm" `Quick test_gcd_lcm;
    Alcotest.test_case "near-max_int operands" `Quick test_overflow;
    Alcotest.test_case "gcd/lcm boundaries" `Quick test_gcd_boundaries;
    Alcotest.test_case "mixed-sign rationals" `Quick test_mixed_sign;
    Alcotest.test_case "fused ops" `Quick test_fused_ops;
    QCheck_alcotest.to_alcotest prop_add_comm;
    QCheck_alcotest.to_alcotest prop_mul_assoc;
    QCheck_alcotest.to_alcotest prop_floor_ceil;
    QCheck_alcotest.to_alcotest prop_sub_add_inverse;
    QCheck_alcotest.to_alcotest prop_normal_form;
    QCheck_alcotest.to_alcotest prop_compare_vs_float;
    QCheck_alcotest.to_alcotest prop_fused_div;
  ]
