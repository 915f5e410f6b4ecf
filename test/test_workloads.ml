open Dbp

let check_int = Alcotest.(check int)

(* Every workload must compile, terminate, and reproduce its locked-in
   result. *)
let test_plain_results () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let code, _ = Minic.Compile.run ~fuel:50_000_000 w.source in
      match w.expected_exit with
      | Some expect -> check_int w.name expect code
      | None -> ())
    Workloads.Spec.all

(* Instrumentation must not change workload results; checked on one
   C-class and one FORTRAN-class program across the optimization
   levels (the benchmark harness exercises the full matrix). *)
let test_instrumented_results () =
  let subjects =
    [ Workloads.Li.workload; Workloads.Matrix300.workload ]
  in
  let option_sets =
    [
      { Instrument.default_options with strategy = Strategy.Bitmap };
      { Instrument.default_options with strategy = Strategy.Cache_inline };
      { Instrument.default_options with opt = Instrument.O_full };
    ]
  in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      List.iter
        (fun o ->
          let o =
            { o with Instrument.fortran_idiom = Workloads.Workload.fortran_idiom w }
          in
          let session = Session.create ~options:o w.source in
          Mrs.enable session.Session.mrs;
          let code, _ = Session.run ~fuel:50_000_000 session in
          match w.expected_exit with
          | Some expect ->
            check_int
              (w.name ^ " under " ^ Strategy.to_string o.Instrument.strategy)
              expect code
          | None -> ())
        option_sets)
    subjects

(* Elimination sanity on the two poles of Table 2: matrix300 should
   eliminate nearly all dynamic checks, the lisp kernel far fewer. *)
let eliminated_fraction (w : Workloads.Workload.t) =
  let o =
    {
      Instrument.default_options with
      opt = Instrument.O_full;
      fortran_idiom = Workloads.Workload.fortran_idiom w;
    }
  in
  let session = Session.create ~options:o w.source in
  ignore (Session.run ~fuel:50_000_000 session);
  let count = Telemetry.current session.Session.telemetry in
  let total = count Telemetry.Check_execs in
  let elim =
    count Telemetry.Sym_eliminated_execs + count Telemetry.Loop_eliminated_execs
  in
  float_of_int elim /. float_of_int (max 1 total)

let test_elimination_extremes () =
  let m = eliminated_fraction Workloads.Matrix300.workload in
  Alcotest.(check bool)
    (Printf.sprintf "matrix300 eliminates most checks (%.2f)" m)
    true (m > 0.85);
  let l = eliminated_fraction Workloads.Li.workload in
  Alcotest.(check bool)
    (Printf.sprintf "li eliminates fewer checks than matrix300 (%.2f)" l)
    true (l < m)

(* The textual assembly pipeline: print a whole instrumented workload
   to SPARC assembly text, parse it back, assemble and run — the result
   must be identical.  This exercises the printer/parser on tens of
   thousands of real instructions. *)
let test_assembly_text_roundtrip () =
  let w = Workloads.Fpppp.workload in
  let out = Minic.Compile.compile w.source in
  let plan =
    Instrument.run
      { Instrument.default_options with
        fortran_idiom = Workloads.Workload.fortran_idiom w }
      out
  in
  let printed = Sparc.Printer.program_to_string plan.Instrument.program in
  let reparsed = Sparc.Parser.program_of_string printed in
  let image = Sparc.Assembler.assemble reparsed in
  let cpu = Machine.Cpu.create image in
  Machine.Cpu.install_basic_services cpu;
  (* No MRS on this copy: raise the disabled flag so the guard skips
     every check body. *)
  Machine.Cpu.set cpu (Sparc.Reg.g 6) 1;
  let code = Machine.Cpu.run ~fuel:50_000_000 cpu in
  match w.expected_exit with
  | Some e -> check_int "round-tripped result" e code
  | None -> ()

let suites =
  [
    ( "workloads",
      [
        Alcotest.test_case "locked results" `Quick test_plain_results;
        Alcotest.test_case "instrumented results" `Slow test_instrumented_results;
        Alcotest.test_case "elimination extremes" `Slow test_elimination_extremes;
        Alcotest.test_case "assembly text round trip" `Quick
          test_assembly_text_roundtrip;
      ] );
  ]
