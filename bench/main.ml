(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md section 4 for the experiment
   index).  Run a single experiment by name, or everything:

     dune exec bench/main.exe -- [EXPERIMENT|all] [-j N]
                                 [--chrome-trace FILE] [--span-set]

   where EXPERIMENT is a name from [experiments] below; [all] runs
   those marked for it, in order.  Each experiment returns its tables
   as data and [Table.print_parts] prints them.

   Cells run on a pool of [-j] worker domains (default:
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

(* Every experiment by name, with whether [all] runs it; [all] keeps
   this order. *)
let experiments =
  [
    ("table1", true, Tables.table1);
    ("figure3", true, Tables.figure3);
    ("table2", true, Tables.table2);
    ("nops", true, Tables.nops);
    ("strategies", true, Tables.strategies);
    ("breakeven", true, Tables.breakeven);
    ("readwrite", true, Tables.readwrite);
    ("ablations", true, Tables.ablations);
    ("replay", true, Tables.replay);
    ("profile", true, Tables.profile);
    ("timeseries", true, Tables.timeseries_sampler);
    ("verify", true, Tables.verify);
    ("smoke", false, Tables.smoke);
    ("service", false, Service.run);
  ]

let usage () =
  Printf.eprintf "usage: main.exe [%s|all] [-j N] [--chrome-trace FILE] [--span-set]\n"
    (String.concat "|" (List.map (fun (name, _, _) -> name) experiments));
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
  | "all" ->
    List.iter
      (fun (_, in_all, run) -> if in_all then Table.print_parts (run ()))
      experiments
  | name -> (
    match List.find_opt (fun (n, _, _) -> n = name) experiments with
    | Some (_, _, run) -> Table.print_parts (run ())
    | None -> usage ()));
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
