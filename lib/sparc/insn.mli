(** The simulated SPARC-subset instruction set.

    The subset covers what the naive debug compiler emits plus what the
    monitored-region-service check sequences need: the integer ALU (with
    and without condition-code update), [sethi], loads and stores of
    byte/half/word/double width, conditional branches, [call], indirect
    jumps ([jmpl]), register-window [save]/[restore], and unconditional
    traps.

    Control-transfer semantics differ from real SPARC v8 in one
    documented way: there are no branch delay slots.  [call] records the
    address of the call instruction itself in [%o7] and transfers
    immediately; the conventional return [jmpl %i7+8] therefore skips
    the padding word emitted after each call.  See DESIGN.md §2. *)

type operand = Reg of Reg.t | Imm of int

type target =
  | Sym of string  (** unresolved label; assembler resolves to {!Abs} *)
  | Abs of int     (** absolute byte address *)

type alu =
  | Add | Sub | And | Or | Xor | Andn | Orn | Xnor
  | Sll | Srl | Sra
  | Smul | Umul | Sdiv | Udiv

type width = Byte | Half | Word | Double

type t =
  | Alu of { op : alu; cc : bool; rs1 : Reg.t; op2 : operand; rd : Reg.t }
      (** [rd := rs1 op op2]; sets the condition codes when [cc]. *)
  | Sethi of { imm : int; rd : Reg.t }
      (** [rd := imm lsl 10] (the 22-bit [sethi] immediate). *)
  | Ld of { width : width; signed : bool; rs1 : Reg.t; off : operand; rd : Reg.t }
      (** [rd := mem[rs1 + off]]; [signed] selects sign extension for
          sub-word widths.  [Double] loads the even/odd pair [rd],[rd+1]. *)
  | St of { width : width; rd : Reg.t; rs1 : Reg.t; off : operand }
      (** [mem[rs1 + off] := rd].  [Double] stores the pair [rd],[rd+1]. *)
  | Branch of { cond : Cond.t; target : target }
  | Call of { target : target }
      (** [%o7 := pc; pc := target]. *)
  | Jmpl of { rs1 : Reg.t; off : operand; rd : Reg.t }
      (** [rd := pc; pc := rs1 + off] — indirect jump, used for returns. *)
  | Save of { rs1 : Reg.t; op2 : operand; rd : Reg.t }
      (** Push a register window, then [rd := rs1 + op2] (computed in the
          {e old} window, written in the new one). *)
  | Restore of { rs1 : Reg.t; op2 : operand; rd : Reg.t }
      (** Pop a register window; [rd := rs1 + op2] computed in the old
          window, written in the restored one. *)
  | Trap of { number : int }
      (** [ta number] — unconditional trap into the machine services. *)
  | Nop

val width_bytes : width -> int

val defs : t -> Reg.t list
(** Registers written.  [Call] defines [%o7]. *)

val is_control : t -> bool
(** Branch, call, indirect jump or trap. *)

val map_target : (target -> target) -> t -> t
(** Rewrite the branch/call target, if any. *)

val alu_to_string : alu -> string
val alu_of_string : string -> alu
(** @raise Invalid_argument on unknown mnemonics. *)

val equal : t -> t -> bool
