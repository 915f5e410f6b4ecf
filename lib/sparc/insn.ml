type operand = Reg of Reg.t | Imm of int

type target = Sym of string | Abs of int

type alu =
  | Add | Sub | And | Or | Xor | Andn | Orn | Xnor
  | Sll | Srl | Sra
  | Smul | Umul | Sdiv | Udiv

type width = Byte | Half | Word | Double

type t =
  | Alu of { op : alu; cc : bool; rs1 : Reg.t; op2 : operand; rd : Reg.t }
  | Sethi of { imm : int; rd : Reg.t }
  | Ld of { width : width; signed : bool; rs1 : Reg.t; off : operand; rd : Reg.t }
  | St of { width : width; rd : Reg.t; rs1 : Reg.t; off : operand }
  | Branch of { cond : Cond.t; target : target }
  | Call of { target : target }
  | Jmpl of { rs1 : Reg.t; off : operand; rd : Reg.t }
  | Save of { rs1 : Reg.t; op2 : operand; rd : Reg.t }
  | Restore of { rs1 : Reg.t; op2 : operand; rd : Reg.t }
  | Trap of { number : int }
  | Nop

let width_bytes = function Byte -> 1 | Half -> 2 | Word -> 4 | Double -> 8

let defs = function
  | Alu { rd; _ } -> [ rd ]
  | Sethi { rd; _ } -> [ rd ]
  | Ld { rd; width; _ } ->
    if width = Double then [ rd; Reg.of_index (Reg.index rd + 1) ] else [ rd ]
  | St _ -> []
  | Branch _ -> []
  | Call _ -> [ Reg.o7 ]
  | Jmpl { rd; _ } -> [ rd ]
  | Save { rd; _ } | Restore { rd; _ } -> [ rd ]
  | Trap _ -> []
  | Nop -> []

let is_control = function
  | Branch _ | Call _ | Jmpl _ | Trap _ -> true
  | Alu _ | Sethi _ | Ld _ | St _ | Save _ | Restore _ | Nop -> false

let map_target f = function
  | Branch b -> Branch { b with target = f b.target }
  | Call c -> Call { target = f c.target }
  | (Alu _ | Sethi _ | Ld _ | St _ | Jmpl _ | Save _ | Restore _ | Trap _ | Nop)
    as insn ->
    insn

let alu_to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Andn -> "andn"
  | Orn -> "orn"
  | Xnor -> "xnor"
  | Sll -> "sll"
  | Srl -> "srl"
  | Sra -> "sra"
  | Smul -> "smul"
  | Umul -> "umul"
  | Sdiv -> "sdiv"
  | Udiv -> "udiv"

let alu_of_string = function
  | "add" -> Add
  | "sub" -> Sub
  | "and" -> And
  | "or" -> Or
  | "xor" -> Xor
  | "andn" -> Andn
  | "orn" -> Orn
  | "xnor" -> Xnor
  | "sll" -> Sll
  | "srl" -> Srl
  | "sra" -> Sra
  | "smul" -> Smul
  | "umul" -> Umul
  | "sdiv" -> Sdiv
  | "udiv" -> Udiv
  | s -> invalid_arg (Printf.sprintf "Insn.alu_of_string: %S" s)

let equal_operand a b =
  match a, b with
  | Reg r1, Reg r2 -> Reg.equal r1 r2
  | Imm i1, Imm i2 -> i1 = i2
  | (Reg _ | Imm _), _ -> false

let equal_target a b =
  match a, b with
  | Sym s1, Sym s2 -> String.equal s1 s2
  | Abs a1, Abs a2 -> a1 = a2
  | (Sym _ | Abs _), _ -> false

let equal (a : t) (b : t) =
  match a, b with
  | Alu x, Alu y ->
    x.op = y.op && x.cc = y.cc && Reg.equal x.rs1 y.rs1
    && equal_operand x.op2 y.op2 && Reg.equal x.rd y.rd
  | Sethi x, Sethi y -> x.imm = y.imm && Reg.equal x.rd y.rd
  | Ld x, Ld y ->
    (* [signed] only affects sub-word widths. *)
    let signed_matters = match x.width with Byte | Half -> true | Word | Double -> false in
    x.width = y.width
    && ((not signed_matters) || x.signed = y.signed)
    && Reg.equal x.rs1 y.rs1
    && equal_operand x.off y.off && Reg.equal x.rd y.rd
  | St x, St y ->
    x.width = y.width && Reg.equal x.rd y.rd && Reg.equal x.rs1 y.rs1
    && equal_operand x.off y.off
  | Branch x, Branch y -> Cond.equal x.cond y.cond && equal_target x.target y.target
  | Call x, Call y -> equal_target x.target y.target
  | Jmpl x, Jmpl y ->
    Reg.equal x.rs1 y.rs1 && equal_operand x.off y.off && Reg.equal x.rd y.rd
  | Save x, Save y ->
    Reg.equal x.rs1 y.rs1 && equal_operand x.op2 y.op2 && Reg.equal x.rd y.rd
  | Restore x, Restore y ->
    Reg.equal x.rs1 y.rs1 && equal_operand x.op2 y.op2 && Reg.equal x.rd y.rd
  | Trap x, Trap y -> x.number = y.number
  | Nop, Nop -> true
  | ( ( Alu _ | Sethi _ | Ld _ | St _ | Branch _ | Call _ | Jmpl _ | Save _
      | Restore _ | Trap _ | Nop ),
      _ ) ->
    false
