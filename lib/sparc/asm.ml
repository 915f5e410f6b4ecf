type item =
  | Insn of Insn.t
  | Label of string
  | Set_label of { label : string; offset : int; rd : Reg.t }
  | Comment of string

type ddef = { name : string; size : int; init : int list }

type program = { text : item list; data : ddef list; entry : string }

let simm13_min = -4096
let simm13_max = 4095

let fits_simm13 v = v >= simm13_min && v <= simm13_max

(* --- instruction builders --------------------------------------------- *)

let alu ?(cc = false) op rs1 op2 rd = Insn.Alu { op; cc; rs1; op2; rd }

let add ?cc rs1 op2 rd = alu ?cc Insn.Add rs1 op2 rd
let sub ?cc rs1 op2 rd = alu ?cc Insn.Sub rs1 op2 rd
let and_ ?cc rs1 op2 rd = alu ?cc Insn.And rs1 op2 rd
let or_ ?cc rs1 op2 rd = alu ?cc Insn.Or rs1 op2 rd
let sll rs1 op2 rd = alu Insn.Sll rs1 op2 rd
let srl rs1 op2 rd = alu Insn.Srl rs1 op2 rd
let sra rs1 op2 rd = alu Insn.Sra rs1 op2 rd
let smul rs1 op2 rd = alu Insn.Smul rs1 op2 rd
let sdiv rs1 op2 rd = alu Insn.Sdiv rs1 op2 rd

let mov op2 rd = or_ Reg.g0 op2 rd

let sethi imm rd = Insn.Sethi { imm; rd }

let set value rd =
  if fits_simm13 value then [ mov (Insn.Imm value) rd ]
  else
    let u = Word.to_unsigned value in
    let hi = u lsr 10 and lo = u land 0x3FF in
    let head = sethi hi rd in
    if lo = 0 then [ head ] else [ head; or_ rd (Insn.Imm lo) rd ]

let cmp rs1 op2 = sub ~cc:true rs1 op2 Reg.g0
let tst r = or_ ~cc:true Reg.g0 (Insn.Reg r) Reg.g0

let ld ?(width = Insn.Word) ?(signed = true) rs1 off rd =
  Insn.Ld { width; signed; rs1; off; rd }

let st ?(width = Insn.Word) rd rs1 off = Insn.St { width; rd; rs1; off }

let branch cond label = Insn.Branch { cond; target = Insn.Sym label }
let ba label = branch Cond.A label
let call label = Insn.Call { target = Insn.Sym label }
let jmpl rs1 off rd = Insn.Jmpl { rs1; off; rd }
let ret = jmpl Reg.i7 (Insn.Imm 8) Reg.g0
let retl = jmpl Reg.o7 (Insn.Imm 8) Reg.g0
let save frame = Insn.Save { rs1 = Reg.sp; op2 = Insn.Imm (-frame); rd = Reg.sp }
let restore = Insn.Restore { rs1 = Reg.g0; op2 = Insn.Imm 0; rd = Reg.g0 }
let trap number = Insn.Trap { number }
let nop = Insn.Nop

(* --- item-level helpers ------------------------------------------------ *)

let insns l = List.map (fun i -> Insn i) l

let item_size = function
  | Insn _ -> 4
  | Label _ | Comment _ -> 0
  | Set_label _ -> 8
