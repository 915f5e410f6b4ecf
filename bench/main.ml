(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md section 4 for the experiment
   index).  Run a single experiment by name, or everything:

     dune exec bench/main.exe -- [table1|table2|figure3|nops|strategies|
                                  breakeven|readwrite|ablations|smoke|
                                  telemetry|replay|profile|timeseries|verify|
                                  service|all]
                                 [-j N] [--chrome-trace FILE] [--span-set]

   Cells run on a pool of [-j] worker domains (default: [DBP_JOBS] or
   [Domain.recommended_domain_count ()]; [-j 1] is fully serial).  Every
   number printed is simulated, so stdout is byte-identical for every
   [-j].  Host time is measured by perfbench alone (perfbench/README.md).

   Every instrumented cell's telemetry report is absorbed into its
   worker domain's sink ([Pool.telemetry_sink]); the merged summary
   printed after the tables is a commutative sum over those sinks, so
   it too is byte-identical for every [-j].  The same holds for the
   audit verdict summary (commutative pointwise sum) and, with
   [--span-set], for the phase-span name multiset; [--chrome-trace]
   writes every domain's pipeline spans as one Perfetto-loadable
   trace. *)

let usage () =
  prerr_endline
    "usage: main.exe [table1|table2|figure3|nops|strategies|breakeven|readwrite|ablations|smoke|telemetry|replay|profile|timeseries|verify|service|all] [-j N] [--chrome-trace FILE] [--span-set]";
  exit 2

let () =
  let experiment = ref None in
  let chrome_path = ref None in
  let span_set = ref false in
  let rec parse = function
    | [] -> ()
    | "-j" :: n :: rest ->
      (match Pool.parse_jobs n with
      | Some n -> Pool.set_jobs n
      | None -> usage ());
      parse rest
    | "--chrome-trace" :: path :: rest ->
      chrome_path := Some path;
      parse rest
    | "--span-set" :: rest ->
      span_set := true;
      parse rest
    | arg :: rest when !experiment = None && String.length arg > 0 && arg.[0] <> '-' ->
      experiment := Some arg;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let which = Option.value ~default:"all" !experiment in
  (match which with
  | "table1" -> Tables.table1 ()
  | "table2" -> Tables.table2 ()
  | "figure3" -> Tables.figure3 ()
  | "nops" -> Tables.nops ()
  | "strategies" -> Tables.strategies ()
  | "breakeven" -> Tables.breakeven ()
  | "readwrite" -> Tables.readwrite ()
  | "ablations" -> Tables.ablations ()
  | "smoke" -> Tables.smoke ()
  | "telemetry" -> Tables.telemetry ()
  | "replay" -> Tables.replay ()
  | "profile" -> Tables.profile ()
  | "timeseries" -> Tables.timeseries_sampler ()
  | "verify" -> Tables.verify ()
  | "service" -> Service.run ()
  | "all" ->
    Tables.table1 ();
    Tables.figure3 ();
    Tables.table2 ();
    Tables.nops ();
    Tables.strategies ();
    Tables.breakeven ();
    Tables.readwrite ();
    Tables.ablations ();
    Tables.telemetry ();
    Tables.replay ();
    Tables.profile ();
    Tables.timeseries_sampler ();
    Tables.verify ()
  | _ -> usage ());
  (* The merged telemetry summary is a sum over per-domain sinks —
     commutative, so byte-identical for every [-j]. *)
  let merged = Pool.merged_report () in
  Printf.printf "\n== Telemetry (merged across all instrumented runs) ==\n";
  print_string (Export.to_text merged);
  Printf.printf "\n== Audit (provenance verdicts, merged) ==\n";
  List.iter
    (fun (name, count) -> Printf.printf "%-16s%10d\n" name count)
    (Pool.merged_audit_summary ());
  (* The span-name multiset is scheduling-independent even though which
     domain records which span is not; printing it on stdout puts it
     under the byte-identity diff of the [-j] parity rules. *)
  if !span_set then begin
    Printf.printf "\n== Phase spans (multiset across all instrumented runs) ==\n";
    List.iter
      (fun (name, count) -> Printf.printf "%-16s%10d\n" name count)
      (Trace.span_set (Pool.tracers ()))
  end;
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc (Trace.to_chrome_string (Pool.tracers ()));
      close_out oc)
    !chrome_path
