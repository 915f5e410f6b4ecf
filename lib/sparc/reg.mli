(** SPARC integer registers.

    Thirty-two registers are visible at any time: eight globals and the
    current window's eight each of {i out}, {i local} and {i in}
    registers.  [%g0] reads as zero and ignores writes; [%o6] is the
    stack pointer, [%i6] the frame pointer, [%o7]/[%i7] hold return
    addresses across [call]/[save]. *)

type t =
  | G of int  (** [%g0..%g7]; [%g0] is hardwired to zero *)
  | O of int  (** [%o0..%o7]; [%o6] = [%sp], [%o7] = call return address *)
  | L of int  (** [%l0..%l7] *)
  | I of int  (** [%i0..%i7]; [%i6] = [%fp], [%i7] = callee return address *)

val g : int -> t
val o : int -> t
val l : int -> t
val i_ : int -> t
(** Checked constructors. @raise Invalid_argument if the index is not in [0,8). *)

val g0 : t
val sp : t
val fp : t
val o7 : t
val i7 : t

val equal : t -> t -> bool
val compare : t -> t -> int

val index : t -> int
(** Dense index in [0,32): globals, outs, locals, ins. *)

val of_index : int -> t
(** Inverse of {!index}. @raise Invalid_argument outside [0,32). *)

val to_string : t -> string
(** Assembly syntax, e.g. ["%o3"]; [%o6]/[%i6] print as ["%sp"]/["%fp"]. *)

val of_string : string -> t
(** Inverse of {!to_string}. @raise Invalid_argument on malformed input. *)
