open Dbp
open Sparc

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Checkgen: emitted instruction budgets ---------------------------------- *)

let count_insns items =
  List.length
    (List.filter (function Asm.Insn _ | Asm.Set_label _ -> true | _ -> false) items)

let loads_in items =
  List.length
    (List.filter (function Asm.Insn (Insn.Ld _) -> true | _ -> false) items)

let stores_in items =
  List.length
    (List.filter (function Asm.Insn (Insn.St _) -> true | _ -> false) items)

let sample_store = Asm.st (Reg.o 0) Reg.fp (Insn.Imm (-20))

let checkgen_items strategy =
  let env = Checkgen.make_env ~layout:(Layout.v ()) ~strategy () in
  Checkgen.check_items env ~write_type:Write_type.Stack sample_store

let test_checkgen_bir_budget () =
  (* §3.3.3: BitmapInlineRegisters executes 12 register instructions and
     2 loads on the full-lookup path (plus guard + address + trap). *)
  let items = checkgen_items Strategy.Bitmap_inline_registers in
  check_int "two loads" 2 (loads_in items);
  check_int "no stores" 0 (stores_in items);
  (* The paper's budget counts the address computation plus the lookup's
     ALU work: 12 register instructions and 2 loads.  On top sit the
     2-instruction disabled guard, the lookup's two conditional
     branches, and the hit trap: 19 instructions in all. *)
  let alu =
    List.length
      (List.filter
         (function
           | Asm.Insn (Insn.Alu _) | Asm.Insn (Insn.Sethi _) | Asm.Set_label _ ->
             true
           | _ -> false)
         items)
  in
  let branches =
    List.length
      (List.filter (function Asm.Insn (Insn.Branch _) -> true | _ -> false) items)
  in
  (* alu = guard tst (1) + address (1) + 11 lookup ALU ops = 13;
     paper's "12 register instructions" = address + lookup ALU + guard
     tst, minus the cc-setting ops it folds into the branches. *)
  check_int "ALU instructions" 13 alu;
  check_int "branches" 3 branches;
  check_int "instruction budget" 19 (count_insns items)

let test_checkgen_bitmap_is_call () =
  let items = checkgen_items Strategy.Bitmap in
  check_bool "calls the library" true
    (List.exists
       (function
         | Asm.Insn (Insn.Call { target = Insn.Sym "__dbp_check_word" }) -> true
         | _ -> false)
       items);
  (* guard 2 + addr 1 + call + nop *)
  check_int "five instructions inline" 5 (count_insns items)

let test_checkgen_inline_spills () =
  (* The no-reserved-registers variant must save and restore its three
     temporaries around the lookup. *)
  let items = checkgen_items Strategy.Bitmap_inline in
  check_int "three spill stores" 3 (stores_in items);
  check_bool "three reloads" true (loads_in items >= 3 + 2)

let test_checkgen_cache_inline_test () =
  (* §3.1: the cache test itself is a handful of instructions ending in
     a branch; misses call per-write-type handlers. *)
  let items = checkgen_items Strategy.Cache in
  check_bool "calls the stack-cache miss handler" true
    (List.exists
       (function
         | Asm.Insn (Insn.Call { target = Insn.Sym "__dbp_cache_miss_stack" }) ->
           true
         | _ -> false)
       items);
  check_bool "inline part is small" true (count_insns items <= 8)

let test_checkgen_double_checks_both_words () =
  let env =
    Checkgen.make_env ~layout:(Layout.v ())
      ~strategy:Strategy.Bitmap_inline_registers ()
  in
  let std = Asm.st ~width:Insn.Double (Reg.o 0) Reg.fp (Insn.Imm (-24)) in
  let items = Checkgen.check_items env ~write_type:Write_type.Stack std in
  (* Two full lookups -> four loads. *)
  check_int "four loads" 4 (loads_in items)

let test_checkgen_read_before_load () =
  let env =
    Checkgen.make_env ~layout:(Layout.v ())
      ~strategy:Strategy.Bitmap_inline_registers ()
  in
  let ld = Asm.ld (Reg.l 0) (Insn.Imm 8) (Reg.l 0) in
  let items = Checkgen.read_check_items env ~write_type:Write_type.Heap ld in
  (* Address is computed from the base register, so the sequence must
     be placeable before a load that overwrites its own base. *)
  check_bool "uses read-hit trap" true
    (List.exists
       (function
         | Asm.Insn (Insn.Trap { number }) -> number = Traps.read_hit
         | _ -> false)
       items)

let test_monitor_library_contents () =
  let lib strategy ~reads =
    let env = Checkgen.make_env ~layout:(Layout.v ()) ~strategy () in
    Checkgen.monitor_library env ~control_checks:false ~monitor_reads:reads
  in
  let labels items =
    List.filter_map (function Asm.Label l -> Some l | _ -> None) items
  in
  check_bool "bitmap routine present" true
    (List.mem "__dbp_check_word" (labels (lib Strategy.Bitmap ~reads:false)));
  check_bool "read variant on demand" true
    (List.mem "__dbp_check_word_rd" (labels (lib Strategy.Bitmap ~reads:true)));
  check_int "four cache handlers" 4
    (List.length
       (List.filter
          (fun l -> String.length l > 17 && String.sub l 0 17 = "__dbp_cache_miss_")
          (labels (lib Strategy.Cache ~reads:false))));
  check_int "inline strategies need no library" 0
    (List.length (lib Strategy.Bitmap_inline_registers ~reads:false))

(* --- Symopt: escape analysis and matching rules -------------------------------- *)

let symopt_of src =
  let out = Minic.Compile.compile src in
  let slices =
    Ir.Lift.slice_program
      ~function_labels:("_start" :: out.Minic.Codegen.functions)
      out.Minic.Codegen.program.text
  in
  let lifted = List.map Ir.Lift.lift_slice slices in
  let escaped = Symopt.escaped_globals lifted in
  let results =
    List.map2
      (fun (s : Ir.Lift.slice) tac ->
        (s.fname, Symopt.rewrite out.Minic.Codegen.symtab ~fname:s.fname ~escaped tac))
      slices lifted
  in
  (escaped, results)

let test_symopt_escapes () =
  (* &g stored into a pointer: g escapes, must not be matched. *)
  let escaped, results =
    symopt_of "int g; int main() { int *p; p = &g; *p = 1; g = 2; return g; }"
  in
  check_bool "g escaped" true (Symopt.SS.mem "g" escaped);
  let main_r = List.assoc "main" results in
  check_bool "no store matched to g" true
    (List.for_all (fun (s : Symopt.store_site) -> s.pseudo <> "g") main_r.Symopt.matched_stores);
  (* Plain global use: no escape, matched. *)
  let escaped, results = symopt_of "int g; int main() { g = 2; return g; }" in
  check_bool "g not escaped" false (Symopt.SS.mem "g" escaped);
  let main_r = List.assoc "main" results in
  check_bool "store matched to g" true
    (List.exists (fun (s : Symopt.store_site) -> s.pseudo = "g") main_r.Symopt.matched_stores)

let test_symopt_escape_via_call () =
  let escaped, _ =
    symopt_of
      "int g; int f(int *p) { *p = 1; return 0; } int main() { f(&g); return \
       g; }"
  in
  check_bool "argument escape" true (Symopt.SS.mem "g" escaped)

let test_symopt_addr_taken_local () =
  let _, results =
    symopt_of "int main() { int x; int *p; p = &x; *p = 3; x = 4; return x; }"
  in
  let main_r = List.assoc "main" results in
  check_bool "x not matched (address taken)" true
    (List.for_all
       (fun (s : Symopt.store_site) -> s.pseudo <> "main.x")
       main_r.Symopt.matched_stores);
  (* p itself is a plain local pointer: matched. *)
  check_bool "p matched" true
    (List.exists
       (fun (s : Symopt.store_site) -> s.pseudo = "main.p")
       main_r.Symopt.matched_stores)

let test_symopt_arrays_not_matched () =
  let _, results =
    symopt_of "int a[4]; int main() { a[0] = 1; a[1] = 2; return a[0]; }"
  in
  let main_r = List.assoc "main" results in
  check_bool "array stores unmatched" true
    (List.for_all
       (fun (s : Symopt.store_site) -> s.pseudo <> "a")
       main_r.Symopt.matched_stores)

let test_symopt_premonitor_lists () =
  let _, results =
    symopt_of
      "int g; int main() { int i; for (i = 0; i < 3; i = i + 1) { g = g + 1; \
       } return g; }"
  in
  let main_r = List.assoc "main" results in
  (match List.assoc_opt "g" main_r.Symopt.sites_by_pseudo with
  | Some origins -> check_int "one g store site" 1 (List.length origins)
  | None -> Alcotest.fail "no PreMonitor list for g");
  check_bool "i has sites too" true
    (List.mem_assoc "main.i" main_r.Symopt.sites_by_pseudo)

(* --- Instrument plumbing ---------------------------------------------------------- *)

let test_instrument_patch_stubs () =
  let out =
    Minic.Compile.compile
      "int g; int main() { int i; for (i = 0; i < 3; i = i + 1) { g = i; } \
       return g; }"
  in
  let plan =
    Instrument.run
      { Instrument.default_options with opt = Instrument.O_symbol }
      out
  in
  let labels =
    List.filter_map
      (function Asm.Label l -> Some l | _ -> None)
      plan.Instrument.program.text
  in
  List.iter
    (fun (s : Instrument.site) ->
      match s.status with
      | Instrument.Sym_eliminated _ | Instrument.Loop_eliminated _ ->
        check_bool "patch stub exists" true
          (List.mem (Instrument.patch_label s.origin) labels);
        check_bool "back label exists" true
          (List.mem (Instrument.back_label s.origin) labels)
      | Instrument.Checked -> ())
    plan.Instrument.sites;
  (* Labels are unique (the assembler would reject duplicates anyway). *)
  let sorted = List.sort String.compare labels in
  let rec dup = function
    | a :: (b :: _ as r) -> if a = b then Some a else dup r
    | _ -> None
  in
  check_bool "no duplicate labels" true (dup sorted = None)

let test_instrument_exclude () =
  let out =
    Minic.Compile.compile
      "int g; int lib() { g = 1; return 0; } int main() { lib(); g = 2; \
       return g; }"
  in
  let plan =
    Instrument.run { Instrument.default_options with exclude = [ "lib" ] } out
  in
  (* lib's store has no site; main's does. *)
  let sites = plan.Instrument.sites in
  let items = Array.of_list out.Minic.Codegen.program.text in
  let in_lib origin =
    (* find enclosing function by scanning back for a function label *)
    let rec back i =
      if i < 0 then false
      else
        match items.(i) with
        | Asm.Label "lib" -> true
        | Asm.Label "main" | Asm.Label "_start" -> false
        | _ -> back (i - 1)
    in
    back origin
  in
  check_bool "no site inside lib" true
    (List.for_all (fun (s : Instrument.site) -> not (in_lib s.origin)) sites);
  check_bool "main still instrumented" true (sites <> [])

let test_instrument_nop_padding_counts () =
  let out = Minic.Compile.compile "int g; int main() { g = 1; return g; }" in
  let count_nops n =
    let plan =
      Instrument.run { Instrument.default_options with nop_padding = n } out
    in
    List.length
      (List.filter
         (function Asm.Insn Insn.Nop -> true | _ -> false)
         plan.Instrument.program.text)
  in
  let base = count_nops 0 in
  let padded = count_nops 8 in
  let stores = List.length (Instrument.run Instrument.default_options out).Instrument.sites in
  check_int "8 nops per store" (base + (8 * stores)) padded

(* The instrumented program's textual form must survive a print/parse
   round trip — exercising the printer and parser on real output. *)
let test_instrumented_print_parse () =
  let out =
    Minic.Compile.compile
      "int g; int main() { int i; for (i = 0; i < 4; i = i + 1) { g = g + i; \
       } return g; }"
  in
  let plan =
    Instrument.run
      { Instrument.default_options with opt = Instrument.O_full }
      out
  in
  let printed = Printer.program_to_string plan.Instrument.program in
  let reparsed = Parser.program_of_string printed in
  let strip =
    List.filter (function Asm.Comment _ -> false | _ -> true)
  in
  check_int "same item count"
    (List.length (strip plan.Instrument.program.text))
    (List.length (strip reparsed.Asm.text));
  (* And it must still assemble. *)
  ignore (Assembler.assemble reparsed)

(* --- Mrs internals ------------------------------------------------------------------ *)

let test_mrs_eval_bexpr () =
  let src = "int g; int main() { g = 7; return g; }" in
  let session = Session.create src in
  let mrs = session.Session.mrs in
  ignore (Session.run session);
  (* constants and label addresses *)
  check_int "const" 5 (Mrs.eval_bexpr mrs (Ir.Bounds.Bconst 5));
  let g_addr =
    match Sparc.Symtab.lookup session.Session.symtab "g" with
    | Some { Sparc.Symtab.location = Sparc.Symtab.Absolute a; _ } -> a
    | _ -> Alcotest.fail "no g"
  in
  check_int "label" g_addr (Mrs.eval_bexpr mrs (Ir.Bounds.Blab ("g", 0)));
  check_int "label + offset" (g_addr + 8) (Mrs.eval_bexpr mrs (Ir.Bounds.Blab ("g", 8)));
  check_int "arith"
    ((g_addr * 2) + 4)
    (Mrs.eval_bexpr mrs
       (Ir.Bounds.Badd
          (Ir.Bounds.Bmul (Ir.Bounds.Blab ("g", 0), 2), Ir.Bounds.Bconst 4)));
  check_int "shift" (g_addr * 4)
    (Mrs.eval_bexpr mrs (Ir.Bounds.Bshl (Ir.Bounds.Blab ("g", 0), 2)));
  (try
     ignore (Mrs.eval_bexpr mrs (Ir.Bounds.Blab ("nonexistent", 0)));
     Alcotest.fail "expected Unresolved"
   with Mrs.Unresolved _ -> ())

let test_mrs_patch_toggling () =
  let src =
    "int g; int main() { int i; for (i = 0; i < 5; i = i + 1) { g = i; } \
     return g; }"
  in
  let options = { Instrument.default_options with opt = Instrument.O_symbol } in
  let session = Session.create ~options src in
  let mrs = session.Session.mrs in
  let g_site =
    List.find_map
      (fun (s : Instrument.site) ->
        match s.status with
        | Instrument.Sym_eliminated "g" -> Some s.origin
        | _ -> None)
      session.Session.plan.Instrument.sites
  in
  let origin = Option.get g_site in
  check_bool "not inserted initially" false (Mrs.check_inserted mrs origin);
  Mrs.pre_monitor mrs "g";
  check_bool "inserted by PreMonitor" true (Mrs.check_inserted mrs origin);
  Mrs.pre_monitor mrs "g";
  check_bool "idempotent" true (Mrs.check_inserted mrs origin);
  Mrs.post_monitor mrs "g";
  check_bool "removed by PostMonitor" false (Mrs.check_inserted mrs origin)

let test_mrs_pseudo_home () =
  let symtab =
    Symtab.of_list
      [
        { Symtab.name = "g"; func = None; location = Symtab.Absolute 0x400010;
          size_words = 1; ctype = Symtab.Scalar };
        { Symtab.name = "x"; func = Some "f"; location = Symtab.Fp_offset (-20);
          size_words = 1; ctype = Symtab.Scalar };
      ]
  in
  (match Mrs.pseudo_home_of_symtab symtab "g" with
  | Some (`Global 0x400010) -> ()
  | _ -> Alcotest.fail "global home");
  (match Mrs.pseudo_home_of_symtab symtab "f.x" with
  | Some (`Local ("f", -20)) -> ()
  | _ -> Alcotest.fail "local home");
  check_bool "unknown" true (Mrs.pseudo_home_of_symtab symtab "zzz" = None)

(* --- Strategy: string round trip --------------------------------------------- *)

(* Every constructor — including [Hardware_watch n] for arbitrary
   positive register counts, not just the 1 and 4 real hardware ships
   with — must survive [to_string]/[of_string], and garbage must be
   rejected rather than defaulted. *)
let strategy_arb =
  QCheck.make ~print:Strategy.to_string
    QCheck.Gen.(
      frequency
        [
          ( 4,
            oneofl
              [
                Strategy.Nocheck;
                Strategy.Bitmap;
                Strategy.Bitmap_inline;
                Strategy.Bitmap_inline_registers;
                Strategy.Cache;
                Strategy.Cache_inline;
                Strategy.Hash_table;
                Strategy.Trap_check;
              ] );
          (1, map (fun n -> Strategy.Hardware_watch n) (int_range 1 1024));
        ])

let prop_strategy_roundtrip =
  QCheck.Test.make ~count:500
    ~name:"Strategy.of_string inverts to_string over every constructor"
    strategy_arb
    (fun s -> Strategy.of_string (Strategy.to_string s) = s)

let test_strategy_parsing_pinned () =
  (* The CLI's lowercase aliases keep working... *)
  List.iter
    (fun (txt, expect) ->
      check_bool ("alias " ^ txt) true (Strategy.of_string txt = expect))
    [
      ("none", Strategy.Nocheck);
      ("bitmap", Strategy.Bitmap);
      ("bitmap-inline", Strategy.Bitmap_inline);
      ("bitmap-inline-registers", Strategy.Bitmap_inline_registers);
      ("cache", Strategy.Cache);
      ("cache-inline", Strategy.Cache_inline);
      ("hash", Strategy.Hash_table);
      ("trap", Strategy.Trap_check);
      ("HardwareWatch1", Strategy.Hardware_watch 1);
      ("HardwareWatch4", Strategy.Hardware_watch 4);
      (* ...any positive all-digit count parses, leading zeros and all. *)
      ("HardwareWatch7", Strategy.Hardware_watch 7);
      ("HardwareWatch007", Strategy.Hardware_watch 7);
      ("HardwareWatch1024", Strategy.Hardware_watch 1024);
    ];
  (* Garbage is rejected, never defaulted. *)
  List.iter
    (fun txt ->
      match Strategy.of_string txt with
      | _ -> Alcotest.failf "accepted garbage %S" txt
      | exception Invalid_argument _ -> ())
    [
      "";
      "bogus";
      "BITMAP";
      "Bitmap ";
      " Bitmap";
      "HardwareWatch";
      "HardwareWatch0";
      "HardwareWatch00";
      "HardwareWatch-1";
      "HardwareWatch+1";
      "HardwareWatch4x";
      "HardwareWatch 4";
      "hardwarewatch4";
      "HardwareWatch99999999999999999999999";
    ]

let suites =
  [
    ( "dbp.checkgen",
      [
        Alcotest.test_case "BIR budget (12 regs + 2 loads)" `Quick test_checkgen_bir_budget;
        Alcotest.test_case "Bitmap is a call" `Quick test_checkgen_bitmap_is_call;
        Alcotest.test_case "BitmapInline spills" `Quick test_checkgen_inline_spills;
        Alcotest.test_case "Cache inline test" `Quick test_checkgen_cache_inline_test;
        Alcotest.test_case "double-word stores" `Quick test_checkgen_double_checks_both_words;
        Alcotest.test_case "read checks" `Quick test_checkgen_read_before_load;
        Alcotest.test_case "monitor library" `Quick test_monitor_library_contents;
      ] );
    ( "dbp.symopt",
      [
        Alcotest.test_case "escape via store" `Quick test_symopt_escapes;
        Alcotest.test_case "escape via call" `Quick test_symopt_escape_via_call;
        Alcotest.test_case "address-taken locals" `Quick test_symopt_addr_taken_local;
        Alcotest.test_case "arrays unmatched" `Quick test_symopt_arrays_not_matched;
        Alcotest.test_case "PreMonitor site lists" `Quick test_symopt_premonitor_lists;
      ] );
    ( "dbp.instrument",
      [
        Alcotest.test_case "patch stubs" `Quick test_instrument_patch_stubs;
        Alcotest.test_case "exclude list" `Quick test_instrument_exclude;
        Alcotest.test_case "nop padding counts" `Quick test_instrument_nop_padding_counts;
        Alcotest.test_case "print/parse round trip" `Quick test_instrumented_print_parse;
      ] );
    ( "dbp.mrs",
      [
        Alcotest.test_case "eval_bexpr" `Quick test_mrs_eval_bexpr;
        Alcotest.test_case "patch toggling" `Quick test_mrs_patch_toggling;
        Alcotest.test_case "pseudo homes" `Quick test_mrs_pseudo_home;
      ] );
    ( "dbp.strategy",
      [
        QCheck_alcotest.to_alcotest prop_strategy_roundtrip;
        Alcotest.test_case "parsing pinned" `Quick test_strategy_parsing_pinned;
      ] );
  ]
