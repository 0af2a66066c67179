type t = { num : int; den : int }

let rec gcd_pos a b = if b = 0 then a else gcd_pos b (a mod b)
let gcd a b = gcd_pos (abs a) (abs b)
let lcm a b = if a = 0 || b = 0 then 0 else abs (a / gcd a b * b)

let make num den =
  if den = 0 then invalid_arg "Q.make: zero denominator";
  if den = 1 then { num; den = 1 }
  else begin
    let s = if den < 0 then -1 else 1 in
    let num = s * num and den = s * den in
    let g = gcd num den in
    if g = 0 then { num = 0; den = 1 } else { num = num / g; den = den / g }
  end

let of_int n = { num = n; den = 1 }
let zero = of_int 0
let one = of_int 1
let num t = t.num
let den t = t.den

(* Floor/ceil integer division (OCaml [/] truncates toward zero).
   Written as [(p - 1) / q + 1] rather than [(p + q - 1) / q] so that
   operands near max_int do not overflow the adjustment term. *)
let floordiv p q = if p >= 0 then p / q else -(((-p - 1) / q) + 1)
let ceildiv p q = if p <= 0 then -(-p / q) else ((p - 1) / q) + 1

(* Knuth TAOCP 4.5.1: normalise through gcds *before* the
   cross-multiplications, so intermediates stay within native range for
   any inputs whose reduced result fits.  The den = 1 fast paths cover
   the overwhelmingly common integer-cycle arithmetic of the
   schedulers. *)

let add a b =
  if a.num = 0 then b
  else if b.num = 0 then a
  else if a.den = 1 && b.den = 1 then { num = a.num + b.num; den = 1 }
  else begin
    let d1 = gcd_pos a.den b.den in
    if d1 = 1 then
      (* denominators coprime: the sum is already in lowest terms *)
      { num = (a.num * b.den) + (b.num * a.den); den = a.den * b.den }
    else begin
      let t = (a.num * (b.den / d1)) + (b.num * (a.den / d1)) in
      let d2 = gcd t d1 in
      { num = t / d2; den = a.den / d1 * (b.den / d2) }
    end
  end

let neg a = { a with num = -a.num }
let sub a b = add a (neg b)

let mul a b =
  if a.den = 1 && b.den = 1 then { num = a.num * b.num; den = 1 }
  else begin
    let g1 = gcd a.num b.den and g2 = gcd b.num a.den in
    {
      num = a.num / g1 * (b.num / g2);
      den = a.den / g2 * (b.den / g1);
    }
  end

let inv a =
  if a.num = 0 then raise Division_by_zero;
  if a.num < 0 then { num = -a.den; den = -a.num }
  else { num = a.den; den = a.num }

let div a b =
  if b.num = 0 then raise Division_by_zero;
  mul a (inv b)

(* Exact overflow-free comparison: compare integer parts, then recurse
   on the (inverted) remainder fractions — Euclid's algorithm on the
   pair, so it terminates and never multiplies. *)
let rec cmp_pos a b c d =
  (* a/b vs c/d with a, c >= 0 and b, d > 0 *)
  let q1 = a / b and q2 = c / d in
  if q1 <> q2 then Stdlib.compare q1 q2
  else begin
    let r1 = a mod b and r2 = c mod d in
    if r1 = 0 then if r2 = 0 then 0 else -1
    else if r2 = 0 then 1
    else cmp_pos d r2 b r1
  end

let compare a b =
  if a.den = b.den then Stdlib.compare a.num b.num
  else if a.num >= 0 && b.num <= 0 then if a.num = 0 && b.num = 0 then 0 else 1
  else if a.num <= 0 && b.num >= 0 then -1
  else if a.num > 0 then cmp_pos a.num a.den b.num b.den
  else cmp_pos (-b.num) b.den (-a.num) a.den

let equal a b = a.num = b.num && a.den = b.den
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b
let is_integer t = t.den = 1
let floor t = if t.den = 1 then t.num else floordiv t.num t.den
let ceil t = if t.den = 1 then t.num else ceildiv t.num t.den
let sign t = Stdlib.compare t.num 0
let to_float t = float_of_int t.num /. float_of_int t.den

let of_float_approx ?(max_den = 1_000_000) f =
  if Float.is_nan f || Float.is_integer f then of_int (int_of_float f)
  else begin
    let negative = f < 0.0 in
    let f = Float.abs f in
    let a0 = int_of_float (Float.floor f) in
    let frac = f -. float_of_int a0 in
    (* Continued-fraction convergents p/q with q bounded by max_den;
       [x >= 1] is the reciprocal of the remaining fractional part. *)
    let rec go x p_prev q_prev p q depth =
      let a = int_of_float (Float.floor x) in
      let p' = (a * p) + p_prev and q' = (a * q) + q_prev in
      if q' > max_den || depth > 64 then (p, q)
      else
        let rem = x -. float_of_int a in
        if rem < 1e-12 then (p', q')
        else go (1.0 /. rem) p q p' q' (depth + 1)
    in
    let p, q =
      if frac < 1e-12 then (a0, 1) else go (1.0 /. frac) 1 0 a0 1 0
    in
    make (if negative then -p else p) q
  end

let mul_int t n =
  if n = 1 then t
  else if n = 0 then zero
  else if t.den = 1 then { num = t.num * n; den = 1 }
  else begin
    let g = gcd n t.den in
    { num = t.num * (n / g); den = t.den / g }
  end

let div_int t n =
  if n = 0 then invalid_arg "Q.make: zero denominator";
  let g = gcd t.num n in
  let num = t.num / g and n = n / g in
  if n < 0 then { num = -num; den = t.den * -n }
  else { num; den = t.den * n }

let floor_div a b =
  if b.num = 0 then raise Division_by_zero;
  if a.den = 1 && b.den = 1 then
    (* [floordiv] needs a positive divisor *)
    if b.num < 0 then floordiv (-a.num) (-b.num) else floordiv a.num b.num
  else begin
    (* floor((a.num * b.den) / (a.den * b.num)), gcd-reduced first *)
    let g1 = gcd a.num b.num and g2 = gcd_pos a.den b.den in
    let p = a.num / g1 * (b.den / g2) and q = a.den / g2 * (b.num / g1) in
    if q < 0 then floordiv (-p) (-q) else floordiv p q
  end

let ceil_div a b = -floor_div (neg a) b

let pp ppf t =
  if t.den = 1 then Format.fprintf ppf "%d" t.num
  else Format.fprintf ppf "%d/%d" t.num t.den

let to_string t = Format.asprintf "%a" pp t

(* Comparison operators over [t] come last so that the int/float
   comparisons above keep their Stdlib meaning. *)
let ( < ) a b = compare a b < 0
let ( <= ) a b = compare a b <= 0
let ( > ) a b = compare a b > 0
let ( >= ) a b = compare a b >= 0
