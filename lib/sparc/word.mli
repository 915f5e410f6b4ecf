(** 32-bit machine arithmetic.

    The simulator represents every 32-bit register or memory word as an
    OCaml [int] normalized to the signed range [-2{^31}, 2{^31}).  All
    operations below return normalized values and wrap on overflow
    exactly like SPARC integer arithmetic. *)

val norm : int -> int
(** Truncate to 32 bits and sign-extend into the canonical range. *)

val to_unsigned : int -> int
(** Reinterpret a normalized value as unsigned, in [0, 2{^32}). *)

val add : int -> int -> int
val sub : int -> int -> int
val mul : int -> int -> int

val sdiv : int -> int -> int
(** Signed division. @raise Division_by_zero on zero divisor. *)

val udiv : int -> int -> int
(** Unsigned division. @raise Division_by_zero on zero divisor. *)

val umul : int -> int -> int

val logand : int -> int -> int
val logor : int -> int -> int
val logxor : int -> int -> int
val lognot : int -> int

val sll : int -> int -> int
(** Logical shift left; the shift amount is taken modulo 32. *)

val srl : int -> int -> int
(** Logical shift right; the shift amount is taken modulo 32. *)

val sra : int -> int -> int
(** Arithmetic shift right; the shift amount is taken modulo 32. *)

val add_carry : int -> int -> bool
(** Carry out of bit 31 for [a + b]. *)

val add_overflow : int -> int -> bool
(** Signed overflow for [a + b]. *)

val sub_carry : int -> int -> bool
(** Borrow for [a - b], i.e. unsigned [a < b]. *)

val sub_overflow : int -> int -> bool
(** Signed overflow for [a - b]. *)
