open Insn

let operand_to_string = function
  | Reg r -> Reg.to_string r
  | Imm i -> string_of_int i

let target_to_string = function
  | Sym s -> s
  | Abs a -> Printf.sprintf "0x%x" (Word.to_unsigned a)

let address_to_string rs1 off =
  match rs1, off with
  | r, Imm 0 -> Printf.sprintf "[%s]" (Reg.to_string r)
  | r, Imm i when i < 0 -> Printf.sprintf "[%s%d]" (Reg.to_string r) i
  | r, Imm i -> Printf.sprintf "[%s+%d]" (Reg.to_string r) i
  | r, Reg r2 -> Printf.sprintf "[%s+%s]" (Reg.to_string r) (Reg.to_string r2)

let ld_mnemonic width signed =
  match width, signed with
  | Byte, true -> "ldsb"
  | Byte, false -> "ldub"
  | Half, true -> "ldsh"
  | Half, false -> "lduh"
  | Word, _ -> "ld"
  | Double, _ -> "ldd"

let st_mnemonic = function
  | Byte -> "stb"
  | Half -> "sth"
  | Word -> "st"
  | Double -> "std"

let insn_to_string = function
  | Alu { op; cc; rs1; op2; rd } ->
    Printf.sprintf "%s%s %s, %s, %s" (alu_to_string op)
      (if cc then "cc" else "")
      (Reg.to_string rs1) (operand_to_string op2) (Reg.to_string rd)
  | Sethi { imm; rd } ->
    Printf.sprintf "sethi %%hi(0x%x), %s" (Word.to_unsigned (imm lsl 10)) (Reg.to_string rd)
  | Ld { width; signed; rs1; off; rd } ->
    Printf.sprintf "%s %s, %s" (ld_mnemonic width signed)
      (address_to_string rs1 off) (Reg.to_string rd)
  | St { width; rd; rs1; off } ->
    Printf.sprintf "%s %s, %s" (st_mnemonic width) (Reg.to_string rd)
      (address_to_string rs1 off)
  | Branch { cond; target } ->
    Printf.sprintf "b%s %s" (Cond.to_string cond) (target_to_string target)
  | Call { target } -> Printf.sprintf "call %s" (target_to_string target)
  | Jmpl { rs1; off; rd } ->
    let addr =
      match off with
      | Imm i when i < 0 -> Printf.sprintf "%s%d" (Reg.to_string rs1) i
      | Imm i -> Printf.sprintf "%s+%d" (Reg.to_string rs1) i
      | Reg r -> Printf.sprintf "%s+%s" (Reg.to_string rs1) (Reg.to_string r)
    in
    Printf.sprintf "jmpl %s, %s" addr (Reg.to_string rd)
  | Save { rs1; op2; rd } ->
    Printf.sprintf "save %s, %s, %s" (Reg.to_string rs1)
      (operand_to_string op2) (Reg.to_string rd)
  | Restore { rs1; op2; rd } ->
    Printf.sprintf "restore %s, %s, %s" (Reg.to_string rs1)
      (operand_to_string op2) (Reg.to_string rd)
  | Trap { number } -> Printf.sprintf "ta %d" number
  | Nop -> "nop"

let item_to_string = function
  | Asm.Insn i -> "\t" ^ insn_to_string i
  | Asm.Label l -> l ^ ":"
  | Asm.Set_label { label; offset = 0; rd } ->
    Printf.sprintf "\tset %s, %s" label (Reg.to_string rd)
  | Asm.Set_label { label; offset; rd } ->
    Printf.sprintf "\tset %s%+d, %s" label offset (Reg.to_string rd)
  | Asm.Comment c -> "\t! " ^ c

let pp_program ppf (p : Asm.program) =
  Fmt.pf ppf "\t.text\n";
  List.iter (fun item -> Fmt.pf ppf "%s\n" (item_to_string item)) p.text;
  if p.data <> [] then begin
    Fmt.pf ppf "\t.data\n";
    List.iter
      (fun { Asm.name; size; init } ->
        Fmt.pf ppf "%s:" name;
        if init = [] then Fmt.pf ppf "\t.skip %d\n" size
        else begin
          List.iter (fun w -> Fmt.pf ppf "\t.word %d\n" w) init;
          let remaining = size - (4 * List.length init) in
          if remaining > 0 then Fmt.pf ppf "\t.skip %d\n" remaining
        end)
      p.data
  end;
  Fmt.pf ppf "\t.entry %s\n" p.entry

let program_to_string p = Fmt.str "%a" pp_program p
