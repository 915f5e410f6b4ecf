open Sparc

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- Word ------------------------------------------------------------- *)

let test_word_norm () =
  check_int "wrap positive" (-2147483648) (Word.norm 0x80000000);
  check_int "wrap add" (-2147483648) (Word.add 0x7FFFFFFF 1);
  check_int "identity" 42 (Word.norm 42);
  check_int "negative" (-1) (Word.norm 0xFFFFFFFF);
  check_int "unsigned round trip" 0xFFFFFFFF (Word.to_unsigned (-1))

let test_word_shifts () =
  check_int "sll" 8 (Word.sll 1 3);
  check_int "sll mod 32" 2 (Word.sll 1 33);
  check_int "srl of negative" 0x7FFFFFFF (Word.srl (-1) 1);
  check_int "sra of negative" (-1) (Word.sra (-1) 5);
  check_int "sra positive" 4 (Word.sra 16 2)

let test_word_carry () =
  check_bool "add carry" true (Word.add_carry (-1) 1);
  check_bool "no add carry" false (Word.add_carry 1 1);
  check_bool "add overflow" true (Word.add_overflow 0x7FFFFFFF 1);
  check_bool "sub borrow" true (Word.sub_carry 0 1);
  check_bool "sub overflow" true (Word.sub_overflow (-2147483648) 1)

let test_word_divides () =
  check_int "sdiv" (-3) (Word.sdiv (-7) 2);
  check_int "udiv" 0x7FFFFFFF (Word.udiv (-2) 2);
  Alcotest.check_raises "sdiv by zero" Division_by_zero (fun () ->
      ignore (Word.sdiv 1 0))

(* --- Reg ---------------------------------------------------------------- *)

let all_regs = List.init 32 Reg.of_index

let test_reg_roundtrip () =
  List.iter
    (fun r ->
      let r' = Reg.of_string (Reg.to_string r) in
      check_bool (Reg.to_string r) true (Reg.equal r r'))
    all_regs;
  List.iteri
    (fun i r -> check_int "index" i (Reg.index r))
    all_regs

let test_reg_aliases () =
  check_string "sp" "%sp" (Reg.to_string Reg.sp);
  check_string "fp" "%fp" (Reg.to_string Reg.fp);
  check_bool "sp is o6" true (Reg.equal Reg.sp (Reg.o 6));
  check_bool "fp is i6" true (Reg.equal Reg.fp (Reg.i_ 6));
  Alcotest.check_raises "bad index" (Invalid_argument "Reg.of_index") (fun () ->
      ignore (Reg.of_index 32))

(* --- Cond --------------------------------------------------------------- *)

(* Packed flags of [a - b], bit 3 = n, bit 2 = z, bit 1 = v, bit 0 = c. *)
let icc_of_cmp a b =
  let r = Word.sub a b in
  let bit b k = if b then k else 0 in
  bit (r < 0) 8 lor bit (r = 0) 4
  lor bit (Word.sub_overflow a b) 2
  lor bit (Word.sub_carry a b) 1

let test_cond_signed () =
  let pairs = [ (1, 2); (2, 1); (0, 0); (-5, 3); (3, -5); (min_int land 0xFFFFFFFF, 1) ] in
  List.iter
    (fun (a, b) ->
      let a = Word.norm a and b = Word.norm b in
      let icc = icc_of_cmp a b in
      check_bool (Printf.sprintf "%d<%d" a b) (a < b) (Cond.eval_packed Cond.L icc);
      check_bool (Printf.sprintf "%d<=%d" a b) (a <= b) (Cond.eval_packed Cond.Le icc);
      check_bool (Printf.sprintf "%d>%d" a b) (a > b) (Cond.eval_packed Cond.G icc);
      check_bool (Printf.sprintf "%d>=%d" a b) (a >= b) (Cond.eval_packed Cond.Ge icc);
      check_bool (Printf.sprintf "%d=%d" a b) (a = b) (Cond.eval_packed Cond.E icc))
    pairs

let test_cond_unsigned () =
  let pairs = [ (1, 2); (-1, 1); (1, -1); (0, 0) ] in
  List.iter
    (fun (a, b) ->
      let a = Word.norm a and b = Word.norm b in
      let ua = Word.to_unsigned a and ub = Word.to_unsigned b in
      let icc = icc_of_cmp a b in
      check_bool "gu" (ua > ub) (Cond.eval_packed Cond.Gu icc);
      check_bool "leu" (ua <= ub) (Cond.eval_packed Cond.Leu icc);
      check_bool "cc/geu" (ua >= ub) (Cond.eval_packed Cond.Cc icc);
      check_bool "cs/lu" (ua < ub) (Cond.eval_packed Cond.Cs icc))
    pairs

let all_conds =
  Cond.[ A; N; E; Ne; G; Ge; L; Le; Gu; Leu; Cc; Cs; Pos; Neg; Vc; Vs ]

let test_cond_negate () =
  List.iter
    (fun c ->
      List.iter
        (fun icc ->
          check_bool "negate" (not (Cond.eval_packed c icc))
            (Cond.eval_packed (Cond.negate c) icc))
        [ Cond.packed_zero; 0b1001; 0b0100; 0b1010 ])
    all_conds

(* --- Asm / Assembler ----------------------------------------------------- *)

let test_set_expansion () =
  (match Asm.set 42 (Reg.l 0) with
  | [ Insn.Alu { op = Insn.Or; op2 = Insn.Imm 42; _ } ] -> ()
  | _ -> Alcotest.fail "small set should be one mov");
  (match Asm.set 0x12345678 (Reg.l 0) with
  | [ Insn.Sethi _; Insn.Alu { op = Insn.Or; _ } ] -> ()
  | _ -> Alcotest.fail "large set should be sethi+or");
  (* sethi+or must reconstruct the value *)
  let v = 0x12345678 in
  let hi = v lsr 10 and lo = v land 0x3FF in
  check_int "reconstruct" v ((hi lsl 10) lor lo)

let simple_program body =
  { Asm.text = Asm.Label "main" :: body; data = []; entry = "main" }

let test_assemble_resolves_labels () =
  let prog =
    simple_program
      [
        Asm.Insn (Asm.ba "done_");
        Asm.Insn Asm.nop;
        Asm.Label "done_";
        Asm.Insn (Asm.trap 0);
      ]
  in
  let image = Sparc.Assembler.assemble prog in
  check_int "text length" 3 (Array.length image.text);
  (match image.text.(0) with
  | Insn.Branch { target = Insn.Abs a; _ } ->
    check_int "branch target" (image.text_base + 8) a
  | _ -> Alcotest.fail "expected branch");
  check_int "entry" image.text_base image.entry

let test_assemble_data () =
  let prog =
    {
      Asm.text = [ Asm.Label "main"; Asm.Insn (Asm.trap 0) ];
      data =
        [
          { Asm.name = "x"; size = 4; init = [ 7 ] };
          { Asm.name = "arr"; size = 40; init = [] };
        ];
      entry = "main";
    }
  in
  let image = Sparc.Assembler.assemble prog in
  let x = Option.get (Sparc.Assembler.addr_of_label image "x") in
  let arr = Option.get (Sparc.Assembler.addr_of_label image "arr") in
  check_int "x addr" image.data_base x;
  check_int "arr addr" (image.data_base + 8) arr;
  check_bool "init" true (List.mem (x, 7) image.data_init);
  check_int "limit" (arr + 40) image.data_limit

let test_assemble_duplicate_label () =
  let prog =
    simple_program [ Asm.Label "dup"; Asm.Label "dup"; Asm.Insn (Asm.trap 0) ]
  in
  (try
     ignore (Sparc.Assembler.assemble prog);
     Alcotest.fail "expected duplicate label error"
   with Sparc.Assembler.Error _ -> ())

let test_assemble_undefined_label () =
  let prog = simple_program [ Asm.Insn (Asm.ba "nowhere") ] in
  (try
     ignore (Sparc.Assembler.assemble prog);
     Alcotest.fail "expected undefined label error"
   with Sparc.Assembler.Error _ -> ())

let test_set_label_size () =
  let prog =
    {
      Asm.text =
        [
          Asm.Label "main";
          Asm.Set_label { label = "x"; offset = 0; rd = Reg.l 0 };
          Asm.Insn (Asm.trap 0);
        ];
      data = [ { Asm.name = "x"; size = 4; init = [] } ];
      entry = "main";
    }
  in
  let image = Sparc.Assembler.assemble prog in
  check_int "set expands to two words" 3 (Array.length image.text);
  (* Executing sethi+or must produce the label address; verified in
     machine tests, here just check decode shape. *)
  (match image.text.(0), image.text.(1) with
  | Insn.Sethi _, Insn.Alu { op = Insn.Or; _ } -> ()
  | _ -> Alcotest.fail "set_label should expand to sethi+or")

(* --- Printer / Parser round trip ------------------------------------------ *)

let test_print_parse_roundtrip () =
  let items =
    [
      Asm.Label "main";
      Asm.Insn (Asm.save 96);
      Asm.Insn (Asm.mov (Insn.Imm 5) (Reg.o 0));
      Asm.Insn (Asm.st (Reg.o 0) Reg.fp (Insn.Imm (-20)));
      Asm.Insn (Asm.ld Reg.fp (Insn.Imm (-20)) (Reg.o 1));
      Asm.Insn (Asm.add (Reg.o 1) (Insn.Imm 1) (Reg.o 1));
      Asm.Insn (Asm.cmp (Reg.o 1) (Insn.Imm 10));
      Asm.Insn (Asm.branch Cond.L "main");
      Asm.Insn (Asm.st ~width:Insn.Byte (Reg.o 1) (Reg.l 2) (Insn.Reg (Reg.l 3)));
      Asm.Insn (Asm.sethi 0x48 (Reg.g 1));
      Asm.Insn (Asm.call "main");
      Asm.Insn Asm.nop;
      Asm.Insn Asm.ret;
      Asm.Insn Asm.restore;
      Asm.Insn (Asm.trap 0);
      Asm.Set_label { label = "glob"; offset = 4; rd = Reg.l 5 };
    ]
  in
  let prog =
    { Asm.text = items; data = [ { Asm.name = "glob"; size = 8; init = [ 1; 2 ] } ];
      entry = "main" }
  in
  let printed = Printer.program_to_string prog in
  let reparsed = Sparc.Parser.program_of_string printed in
  check_int "same item count" (List.length prog.text) (List.length reparsed.text);
  List.iter2
    (fun a b ->
      match a, b with
      | Asm.Insn x, Asm.Insn y ->
        check_bool (Printer.insn_to_string x) true (Insn.equal x y)
      | Asm.Label x, Asm.Label y -> check_string "label" x y
      | Asm.Set_label x, Asm.Set_label y ->
        check_string "set label" x.label y.label;
        check_int "set offset" x.offset y.offset
      | _ -> Alcotest.fail "item class mismatch")
    prog.text reparsed.text;
  check_string "entry" prog.entry reparsed.entry;
  (match reparsed.data with
  | [ d1 ] ->
    check_string "data name" "glob" d1.Asm.name;
    check_int "data size" 8 d1.size;
    check_bool "data init" true (d1.init = [ 1; 2 ])
  | _ -> Alcotest.fail "expected one data def")

(* Random instruction generator for the qcheck round trip. *)
let gen_reg = QCheck.Gen.(map Reg.of_index (int_bound 31))

let gen_operand =
  QCheck.Gen.(
    oneof [ map (fun r -> Insn.Reg r) gen_reg; map (fun i -> Insn.Imm i) (int_range (-4096) 4095) ])

let gen_insn =
  QCheck.Gen.(
    oneof
      [
        return Insn.Nop;
        (let* op =
           oneofl
             [ Insn.Add; Insn.Sub; Insn.And; Insn.Or; Insn.Xor; Insn.Sll; Insn.Srl;
               Insn.Sra; Insn.Smul; Insn.Sdiv ]
         and* cc = bool
         and* rs1 = gen_reg
         and* op2 = gen_operand
         and* rd = gen_reg in
         return (Insn.Alu { op; cc; rs1; op2; rd }));
        (let* rs1 = gen_reg
         and* off = gen_operand
         and* rd = gen_reg
         and* width = oneofl [ Insn.Word; Insn.Byte; Insn.Half ]
         and* signed = bool in
         return (Insn.Ld { width; signed; rs1; off; rd }));
        (let* rs1 = gen_reg
         and* off = gen_operand
         and* rd = gen_reg
         and* width = oneofl [ Insn.Word; Insn.Byte; Insn.Half ] in
         return (Insn.St { width; rd; rs1; off }));
        (let* cond = oneofl all_conds in
         return (Insn.Branch { cond; target = Insn.Sym "target" }));
        return (Insn.Call { target = Insn.Sym "target" });
        (let* rs1 = gen_reg and* off = gen_operand and* rd = gen_reg in
         return (Insn.Jmpl { rs1; off; rd }));
        (let* n = int_bound 127 in
         return (Insn.Trap { number = n }));
        (let* imm = int_bound 0x3FFFFF and* rd = gen_reg in
         return (Insn.Sethi { imm; rd }));
      ])

let arb_insn = QCheck.make ~print:Printer.insn_to_string gen_insn

let prop_roundtrip =
  QCheck.Test.make ~name:"printer/parser insn round trip" ~count:500 arb_insn
    (fun insn ->
      let printed = Printer.insn_to_string insn in
      let src = Printf.sprintf "target:\n\t%s\n" printed in
      let prog = Sparc.Parser.program_of_string src in
      match prog.text with
      | [ Asm.Label "target"; Asm.Insn parsed ] ->
        (* ld defaults to signed for sub-word widths; printing uses
           distinct mnemonics so equality must hold exactly. *)
        Insn.equal insn parsed
      | _ -> false)

(* --- Symtab -------------------------------------------------------------- *)

let scalar ?func ~name location =
  { Symtab.name; func; location; size_words = 1; ctype = Symtab.Scalar }

let test_symtab_scopes () =
  let t =
    Symtab.of_list
      [
        scalar ~name:"x" (Symtab.Data_label ("x", 0));
        scalar ~func:"f" ~name:"x" (Symtab.Fp_offset (-20));
        scalar ~func:"f" ~name:"y" (Symtab.Fp_offset (-24));
      ]
  in
  (match Symtab.lookup t "x" with
  | Some { Symtab.location = Symtab.Data_label ("x", 0); _ } -> ()
  | _ -> Alcotest.fail "global x");
  (match Symtab.lookup t ~func:"f" "x" with
  | Some { Symtab.location = Symtab.Fp_offset (-20); _ } -> ()
  | _ -> Alcotest.fail "local x");
  (match Symtab.lookup t ~func:"g" "x" with
  | None -> ()
  | Some _ -> Alcotest.fail "g has no local x");
  check_int "globals" 1 (List.length (Symtab.globals t))

let test_symtab_resolution () =
  let t = Symtab.of_list [ scalar ~name:"g" (Symtab.Data_label ("g", 8)) ] in
  let t =
    Symtab.resolve_data_labels
      ~addr_of_label:(fun l -> if l = "g" then Some 0x400000 else None)
      t
  in
  (match Symtab.lookup t "g" with
  | Some { Symtab.location = Symtab.Absolute a; _ } ->
    check_int "resolved" 0x400008 a
  | _ -> Alcotest.fail "resolution failed")

let test_symtab_struct () =
  let e =
    {
      Symtab.name = "s";
      func = None;
      location = Symtab.Data_label ("s", 0);
      size_words = 3;
      ctype = Symtab.Struct { fields = [ ("a", 0); ("f", 1); ("b", 2) ] };
    }
  in
  check_int "field f" 1 (Option.get (Symtab.field_offset e "f"));
  check_bool "missing field" true (Symtab.field_offset e "zz" = None)

let suites =
  [
    ( "sparc.word",
      [
        Alcotest.test_case "norm" `Quick test_word_norm;
        Alcotest.test_case "shifts" `Quick test_word_shifts;
        Alcotest.test_case "carry/overflow" `Quick test_word_carry;
        Alcotest.test_case "division" `Quick test_word_divides;
      ] );
    ( "sparc.reg",
      [
        Alcotest.test_case "round trip" `Quick test_reg_roundtrip;
        Alcotest.test_case "aliases" `Quick test_reg_aliases;
      ] );
    ( "sparc.cond",
      [
        Alcotest.test_case "signed" `Quick test_cond_signed;
        Alcotest.test_case "unsigned" `Quick test_cond_unsigned;
        Alcotest.test_case "negate" `Quick test_cond_negate;
      ] );
    ( "sparc.asm",
      [
        Alcotest.test_case "set expansion" `Quick test_set_expansion;
        Alcotest.test_case "label resolution" `Quick test_assemble_resolves_labels;
        Alcotest.test_case "data layout" `Quick test_assemble_data;
        Alcotest.test_case "duplicate label" `Quick test_assemble_duplicate_label;
        Alcotest.test_case "undefined label" `Quick test_assemble_undefined_label;
        Alcotest.test_case "set_label expansion" `Quick test_set_label_size;
      ] );
    ( "sparc.printer",
      [
        Alcotest.test_case "program round trip" `Quick test_print_parse_roundtrip;
        QCheck_alcotest.to_alcotest prop_roundtrip;
      ] );
    ( "sparc.symtab",
      [
        Alcotest.test_case "scopes" `Quick test_symtab_scopes;
        Alcotest.test_case "resolution" `Quick test_symtab_resolution;
        Alcotest.test_case "struct fields" `Quick test_symtab_struct;
      ] );
  ]
