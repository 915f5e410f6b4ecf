(* 32-bit machine arithmetic on top of OCaml's native [int].

   The simulator stores register and memory values as OCaml [int]s
   normalized to the signed 32-bit range [-2^31, 2^31).  All arithmetic
   must go through [norm] (or the wrappers below) so that overflow wraps
   exactly as it would on a 32-bit SPARC. *)

let norm x =
  let v = x land 0xFFFFFFFF in
  if v land 0x80000000 <> 0 then v - 0x1_0000_0000 else v

let to_unsigned x = x land 0xFFFFFFFF

let add a b = norm (a + b)
let sub a b = norm (a - b)
let mul a b = norm (a * b)

let sdiv a b = if b = 0 then raise Division_by_zero else norm (a / b)

let udiv a b =
  let ua = to_unsigned a and ub = to_unsigned b in
  if ub = 0 then raise Division_by_zero else norm (ua / ub)

let umul a b = norm (to_unsigned a * to_unsigned b)

let logand a b = norm (a land b)
let logor a b = norm (a lor b)
let logxor a b = norm (a lxor b)
let lognot a = norm (lnot a)

let shift_amount n = n land 31

let sll a n = norm (a lsl shift_amount n)
let srl a n = norm (to_unsigned a lsr shift_amount n)

let sra a n =
  (* [a] is already sign-normalized, so OCaml's arithmetic shift works. *)
  norm (a asr shift_amount n)

(* Carry and overflow for the condition codes, computed on the unsigned
   33-bit result as the hardware would. *)

let add_carry a b =
  to_unsigned a + to_unsigned b > 0xFFFFFFFF

let add_overflow a b =
  let r = add a b in
  (a >= 0 && b >= 0 && r < 0) || (a < 0 && b < 0 && r >= 0)

let sub_carry a b =
  (* Borrow: set when unsigned a < unsigned b. *)
  to_unsigned a < to_unsigned b

let sub_overflow a b =
  let r = sub a b in
  (a >= 0 && b < 0 && r < 0) || (a < 0 && b >= 0 && r >= 0)
