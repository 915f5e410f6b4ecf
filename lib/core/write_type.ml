open Sparc

type t = Bss | Stack | Heap | Bss_var

let to_string = function
  | Bss -> "BSS"
  | Stack -> "STACK"
  | Heap -> "HEAP"
  | Bss_var -> "BSS-VAR"

(* The segment cache register dedicated to each write type (§3.1). *)
let cache_reg = function
  | Bss -> Reg.g 1
  | Stack -> Reg.g 2
  | Heap -> Reg.g 3
  | Bss_var -> Reg.g 4

let all = [ Bss; Stack; Heap; Bss_var ]

(* Stable id used to index the telemetry layer's 4-wide per-write-type
   counter arrays ({!Telemetry.n_write_types}); must stay aligned with
   [Telemetry.write_type_name]. *)
let index = function Bss -> 0 | Stack -> 1 | Heap -> 2 | Bss_var -> 3

(* Walk backwards from [idx] to find the in-block definition of [r];
   stops at labels, branches and calls.  Returns the defining position
   so chained lookups continue from there. *)
let rec def_before (items : Asm.item array) idx r =
  if idx < 0 then None
  else
    match items.(idx) with
    | Asm.Label _ -> None
    | Asm.Insn i when Insn.is_control i -> None
    | Asm.Set_label { label; offset; rd } when Reg.equal rd r ->
      Some (idx, `Set_label (label, offset))
    | Asm.Insn (Insn.Alu { op; rs1; op2; rd; _ }) when Reg.equal rd r ->
      Some (idx, `Alu (op, rs1, op2))
    | Asm.Insn insn when List.exists (Reg.equal r) (Insn.defs insn) ->
      Some (idx, `Other)
    | Asm.Insn _ | Asm.Set_label _ | Asm.Comment _ ->
      def_before items (idx - 1) r

(* Classify the store at [idx] (§3.1): frame/stack-pointer addresses are
   STACK; constant addresses (a sethi/or pair) are BSS; the Sun FORTRAN
   idiom — a register offset from a global base materialized in the same
   block — is BSS-VAR; everything else is HEAP.  Without
   [fortran_idiom], BSS-VAR degrades to HEAP as for the paper's C
   programs. *)
let classify_base ?(fortran_idiom = false) (items : Asm.item array) idx rs1 off =
  let degrade = function Bss_var when not fortran_idiom -> Heap | t -> t in
  if Reg.equal rs1 Reg.fp || Reg.equal rs1 Reg.sp then Stack
  else begin
    let base_class =
      match def_before items (idx - 1) rs1 with
      | Some (_, `Set_label _) -> (
        match off with Insn.Imm _ -> Bss | Insn.Reg _ -> Bss_var)
      | Some (pos, `Alu ((Insn.Add | Insn.Or), rs1', _)) -> (
        if Reg.equal rs1' Reg.fp || Reg.equal rs1' Reg.sp then Stack
        else
          match def_before items (pos - 1) rs1' with
          | Some (_, `Set_label _) -> Bss_var
          | Some (_, (`Alu _ | `Other)) | None -> Heap)
      | Some (_, (`Alu _ | `Other)) | None -> Heap
    in
    degrade base_class
  end

let classify ?fortran_idiom (items : Asm.item array) idx =
  match items.(idx) with
  | Asm.Insn (Insn.St { rs1; off; _ }) ->
    classify_base ?fortran_idiom items idx rs1 off
  | Asm.Insn _ | Asm.Label _ | Asm.Set_label _ | Asm.Comment _ ->
    invalid_arg "Write_type.classify: not a store"

let classify_load ?fortran_idiom (items : Asm.item array) idx =
  match items.(idx) with
  | Asm.Insn (Insn.Ld { rs1; off; _ }) ->
    classify_base ?fortran_idiom items idx rs1 off
  | Asm.Insn _ | Asm.Label _ | Asm.Set_label _ | Asm.Comment _ ->
    invalid_arg "Write_type.classify_load: not a load"
