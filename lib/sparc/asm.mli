(** Surface assembly programs: instruction streams with symbolic labels,
    plus builders for the common pseudo-instructions ([set], [mov],
    [cmp], [ret], ...) used by the compiler and by the monitored region
    service's check generators.

    This is the representation the instrumentation tool rewrites — the
    paper's "extra processing stage between the compiler and the
    assembler" (§2.1). *)

type item =
  | Insn of Insn.t
  | Label of string
  | Set_label of { label : string; offset : int; rd : Reg.t }
      (** [rd := address-of label + offset]; expands to a fixed two-word
          [sethi]/[or] pair once the assembler knows the address. *)
  | Comment of string

type ddef = { name : string; size : int; init : int list }
(** A static-data definition: [size] bytes (word-aligned), with leading
    words initialized from [init] and the rest zeroed. *)

type program = { text : item list; data : ddef list; entry : string }
(** [entry] names the label where execution starts. *)

val fits_simm13 : int -> bool
(** Whether [v] fits a SPARC 13-bit signed immediate. *)

(** {1 Instruction builders} *)

val alu : ?cc:bool -> Insn.alu -> Reg.t -> Insn.operand -> Reg.t -> Insn.t

val add : ?cc:bool -> Reg.t -> Insn.operand -> Reg.t -> Insn.t
val sub : ?cc:bool -> Reg.t -> Insn.operand -> Reg.t -> Insn.t
val and_ : ?cc:bool -> Reg.t -> Insn.operand -> Reg.t -> Insn.t
val or_ : ?cc:bool -> Reg.t -> Insn.operand -> Reg.t -> Insn.t
val sll : Reg.t -> Insn.operand -> Reg.t -> Insn.t
val srl : Reg.t -> Insn.operand -> Reg.t -> Insn.t
val sra : Reg.t -> Insn.operand -> Reg.t -> Insn.t
val smul : Reg.t -> Insn.operand -> Reg.t -> Insn.t
val sdiv : Reg.t -> Insn.operand -> Reg.t -> Insn.t

val mov : Insn.operand -> Reg.t -> Insn.t
val sethi : int -> Reg.t -> Insn.t

val set : int -> Reg.t -> Insn.t list
(** Load an arbitrary 32-bit constant: one [mov] when it fits simm13,
    otherwise [sethi] (+ [or] if the low bits are non-zero). *)

val cmp : Reg.t -> Insn.operand -> Insn.t
(** [subcc rs1, op2, %g0]. *)

val tst : Reg.t -> Insn.t
(** [orcc %g0, r, %g0]. *)

val ld : ?width:Insn.width -> ?signed:bool -> Reg.t -> Insn.operand -> Reg.t -> Insn.t
val st : ?width:Insn.width -> Reg.t -> Reg.t -> Insn.operand -> Insn.t
(** [st rd, [rs1+off]] — note the stored register comes first, as in
    SPARC assembly syntax. *)

val branch : Cond.t -> string -> Insn.t
val ba : string -> Insn.t
val call : string -> Insn.t
val jmpl : Reg.t -> Insn.operand -> Reg.t -> Insn.t

val ret : Insn.t
(** [jmpl %i7+8, %g0]. *)

val retl : Insn.t
(** [jmpl %o7+8, %g0] — leaf-routine return. *)

val save : int -> Insn.t
(** [save %sp, -frame, %sp]. *)

val restore : Insn.t
val trap : int -> Insn.t
val nop : Insn.t

(** {1 Item-level helpers} *)

val insns : Insn.t list -> item list

val item_size : item -> int
(** Encoded size in bytes: 4 per instruction, 8 for {!Set_label}, 0 for
    labels and comments. *)
