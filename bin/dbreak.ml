(* dbreak — command-line front end to the data-breakpoint system.

   Compiles a mini-C source file, instruments its writes with the
   chosen strategy and optimization level, runs it under the monitored
   region service, and reports every update of the watched variables.

   Examples:
     dbreak program.mc --watch counter
     dbreak program.mc --watch cfg.max_depth --opt full --strategy Cache
     dbreak program.mc --dump-asm
     dbreak program.mc --stats
     dbreak program.mc --watch counter --metrics metrics.prom --trace 16
     dbreak program.mc --profile prof.json --flamegraph prof.folded
     dbreak program.mc --timeseries ts.json --heatmap heat.ppm
     dbreak program.mc --serve-metrics 9090 --serve-linger 30 *)

open Cmdliner
open Dbp

(* Every export flag funnels through the shared [Frontend.export]:
   render only when the flag was given, and let [Sys_error] escape to
   the single handler below, which turns an unwritable path into the
   same one-line exit-1 failure for all of them (the contract pinned by
   bin/dune's runtest rules).  dbreakd uses the same funnel. *)
let read_file = Frontend.read_file
let export = Frontend.export

let strategy_conv =
  let parse s =
    try Ok (Strategy.of_string s)
    with Invalid_argument m -> Error (`Msg m)
  in
  Arg.conv (parse, fun ppf s -> Strategy.pp ppf s)

let opt_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Frontend.parse_opt s) in
  Arg.conv (parse, fun ppf o -> Fmt.string ppf (Frontend.opt_name o))

(* An interval in instructions: zero or less is a usage error that
   names the flag (exit 2), not a failure inside the library. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some _ | None ->
      Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Fmt.int)

(* Runtime failures are reported here (message to stderr, exit 1) so
   that everything cmdliner itself rejects — unknown flags, missing
   option arguments — is unambiguously a usage error (exit 2). *)
let fail msg =
  Printf.eprintf "dbreak: %s\n" msg;
  1

let run_cmd source_file watches strategy opt check_aliases monitor_reads dump_asm
    stats metrics trace fuel audit_file explain verify_target chrome_trace
    checkpoint_every
    last_write travel profile_file flamegraph_file timeseries_file heatmap_file
    sample_every serve_port serve_linger =
  try
    let source = read_file source_file in
    let options =
      { Instrument.default_options with strategy; opt; check_aliases;
        monitor_reads }
    in
    if dump_asm then begin
      let out = Minic.Compile.compile source in
      let plan = Instrument.run options out in
      print_string (Sparc.Printer.program_to_string plan.Instrument.program);
      0
    end
    else begin
      let telemetry = Telemetry.create ~ring_capacity:trace () in
      Telemetry.set_tag telemetry "source"
        (Filename.basename source_file);
      let audit = Audit.create () in
      Audit.set_tag audit "source" (Filename.basename source_file);
      let tracer = Trace.create ~clock:Unix.gettimeofday () in
      (* Retroactive queries need a checkpoint journal; arm one at the
         default interval if the user asked for a query without giving
         --checkpoint-every explicitly. *)
      let checkpoint_every =
        match checkpoint_every with
        | Some _ as n -> n
        | None ->
          if last_write <> None || travel <> None then Some 10_000 else None
      in
      let profile = profile_file <> None || flamegraph_file <> None in
      (* The sampler is armed whenever something consumes samples: a
         --timeseries export or a live scrape endpoint. *)
      let sample_every =
        if timeseries_file <> None || serve_port <> None then Some sample_every
        else None
      in
      let session =
        Session.create ~options ~telemetry ~audit ~trace:tracer
          ?checkpoint_every ~profile ~profile_clock:Unix.gettimeofday
          ?sample_every ~sample_clock:Unix.gettimeofday
          ~heatmap:(heatmap_file <> None) source
      in
      Session.install_oracle session;
      let server =
        match serve_port with
        | None -> None
        | Some port ->
          let srv =
            Scrape.create ~port
              ~metrics:(fun () -> Export.to_prometheus (Session.report session))
              ()
          in
          Printf.printf "serving metrics on http://127.0.0.1:%d/metrics\n%!"
            (Scrape.port srv);
          (* Pending scrapes are answered from the sampler hook, so a
             request waits at most one sampling interval. *)
          Session.set_on_sample session (fun _ -> ignore (Scrape.poll srv));
          Some srv
      in
      let dbg = Debugger.create session in
      List.iter
        (fun spec ->
          match String.index_opt spec '.' with
          | Some i ->
            let s = String.sub spec 0 i in
            let f = String.sub spec (i + 1) (String.length spec - i - 1) in
            ignore (Debugger.watch_field dbg s f)
          | None -> ignore (Debugger.watch dbg spec))
        watches;
      if watches = [] then Mrs.enable session.Session.mrs;
      Debugger.set_on_event dbg (fun e ->
          Printf.printf "%-20s %s %-10d in %s (pc 0x%x)\n"
            e.Debugger.watch.Debugger.wname
            (match e.Debugger.access with Mrs.Write -> "<-" | Mrs.Read -> "->")
            e.Debugger.value
            (Option.value ~default:"?" e.Debugger.in_function)
            e.Debugger.pc);
      let code, output = Session.run ~fuel session in
      if output <> "" then Printf.printf "--- program output ---\n%s\n" output;
      Printf.printf "--- exited with %d ---\n" code;
      let profile_rep =
        if profile then Some (Session.profile_report session) else None
      in
      (match profile_rep with
      | None -> ()
      | Some rep ->
        Printf.printf "--- profile ---\n";
        (match rep.Profile.p_functions with
        | f :: _ ->
          Printf.printf "hottest function:  %s (%d instrs exclusive, %d calls)\n"
            f.Profile.fr_name f.Profile.fr_excl_instrs f.Profile.fr_calls
        | [] -> ());
        match rep.Profile.p_backedges with
        | be :: _ ->
          Printf.printf "hottest back-edge: 0x%x -> 0x%x%s (%d taken)\n"
            be.Profile.be_from_pc be.Profile.be_to_pc
            (match Debugger.function_of_pc session be.Profile.be_from_pc with
            | Some f -> " in " ^ f
            | None -> "")
            be.Profile.be_count
        | [] -> ());
      (match (session.Session.timeseries, timeseries_file) with
      | Some _, Some _ ->
        let rep = Session.report session in
        Printf.printf "--- timeseries (every %d instrs, %d samples) ---\n%s"
          rep.Telemetry.r_sample_every
          (List.length rep.Telemetry.r_samples)
          (Timeseries.summary_text rep)
      | _ -> ());
      (match session.Session.heatmap with
      | None -> ()
      | Some hm ->
        Session.heatmap_sync_regions session;
        Printf.printf
          "--- heatmap (%d-byte pages): %d touched, writes %d, checks %d, \
           hits %d; monitored pages never hit: %d ---\n"
          (Heatmap.page_bytes hm) (Heatmap.n_pages hm)
          (Heatmap.total_writes hm) (Heatmap.total_checks hm)
          (Heatmap.total_hits hm)
          (List.length (Heatmap.never_fired hm)));
      if stats then begin
        let s = Session.stats session in
        let c = Telemetry.current telemetry in
        let eliminated =
          c Telemetry.Sym_eliminated_execs + c Telemetry.Loop_eliminated_execs
        in
        Printf.printf "instructions: %d\ncycles:       %d\nstores:       %d\n"
          s.Machine.Cpu.instrs s.Machine.Cpu.cycles s.Machine.Cpu.stores;
        Printf.printf "checked write executions:    %d\n"
          (c Telemetry.Check_execs - eliminated);
        Printf.printf "eliminated write executions: %d\n" eliminated;
        Printf.printf "monitor hits: %d user, %d internal\n"
          (c Telemetry.User_hits) (c Telemetry.Internal_hits);
        Printf.printf "pre-header checks: %d (%d triggered)\n"
          (c Telemetry.Loop_entries) (c Telemetry.Loop_triggers);
        Printf.printf "patches inserted: %d\n" (c Telemetry.Patches_inserted);
        Printf.printf "missed hits (oracle): %d\n" (Session.missed_hits session)
      end;
      if trace > 0 then begin
        let rep = Session.report session in
        Printf.printf "--- trace (last %d of %d hits) ---\n"
          (List.length rep.Telemetry.r_events)
          (List.length rep.Telemetry.r_events + rep.Telemetry.r_events_dropped);
        List.iter
          (fun (e : Telemetry.event) ->
            Printf.printf
              "insn %-10d %s %-8s addr 0x%-8x pc 0x%-8x region [0x%x,0x%x) %s\n"
              e.Telemetry.ev_insn
              (match e.Telemetry.ev_access with
              | Telemetry.Write -> "W"
              | Telemetry.Read -> "R")
              (if e.Telemetry.ev_write_type = "" then "?"
               else e.Telemetry.ev_write_type)
              e.Telemetry.ev_addr e.Telemetry.ev_pc e.Telemetry.ev_region_lo
              e.Telemetry.ev_region_hi e.Telemetry.ev_region_kind)
          rep.Telemetry.r_events
      end;
      let replay_failed = ref None in
      let replay_fail msg = replay_failed := Some (fail msg) in
      (match last_write with
      | None -> ()
      | Some target -> (
        match Session.resolve_addr session target with
        | None -> replay_fail (Frontend.unresolved_target target)
        | Some addr -> (
          match Session.last_write session ~addr with
          | None ->
            Printf.printf "--- last-write %s (0x%x): never written ---\n"
              target addr
          | Some { Session.wr_hit = h; wr_write_type } ->
            Printf.printf
              "--- last-write %s (0x%x) ---\n\
               insn %-10d pc 0x%-8x %d -> %d  (%s write%s)\n"
              target addr h.Replay.h_insn h.Replay.h_pc h.Replay.h_old
              h.Replay.h_new
              (match wr_write_type with
              | Some wt -> Write_type.to_string wt
              | None -> "untyped")
              (match Debugger.function_of_pc session h.Replay.h_pc with
              | Some f -> " in " ^ f
              | None -> ""))));
      (match travel with
      | None -> ()
      | Some insn ->
        let re = Session.time_travel session ~insn in
        let s = Session.stats session in
        Printf.printf
          "--- travel to insn %d: re-executed %d instructions, now at pc \
           0x%x after %d instructions ---\n"
          insn re
          (Machine.Cpu.pc session.Session.cpu)
          s.Machine.Cpu.instrs);
      (* Exports come after the retroactive queries so the metrics and
         audit journal include the checkpoint/replay lifecycle they
         triggered.  All of them go through [export] for the shared
         unwritable-path failure behavior. *)
      export metrics (fun () -> Export.to_prometheus (Session.report session));
      export audit_file (fun () ->
          Audit.to_json_string ~indent:1 (Audit.report audit));
      export chrome_trace (fun () ->
          let counters =
            (match session.Session.profiler with
            | Some p -> Profile.chrome_counters p
            | None -> [])
            @
            match session.Session.timeseries with
            | Some ts -> Timeseries.chrome_counters ts
            | None -> []
          in
          Trace.to_chrome_string ~counters [ tracer ]);
      (match profile_rep with
      | None -> ()
      | Some rep ->
        export profile_file (fun () -> Profile.to_json_string ~indent:1 rep);
        export flamegraph_file (fun () -> Profile.folded_to_string rep));
      export timeseries_file (fun () ->
          Timeseries.to_json_string (Session.report session));
      (match (heatmap_file, session.Session.heatmap) with
      | Some path, Some hm ->
        Session.heatmap_sync_regions session;
        let render =
          (* Pick the render from the extension: an image for .ppm,
             machine-readable JSON for .json, the table otherwise. *)
          if Filename.check_suffix path ".ppm" then Heatmap.to_ppm
          else if Filename.check_suffix path ".json" then Heatmap.to_json_string
          else Heatmap.to_text
        in
        export heatmap_file (fun () -> render hm)
      | _ -> ());
      (* Translation validation of the plan itself: re-prove every
         check elimination from the pipeline outputs, independent of
         the analyses that decided it.  Runs after the exports so a
         refuted plan still leaves its artifacts behind for debugging;
         any Refuted or Unknown obligation fails the run (exit 1). *)
      let verify_rep = ref None in
      let verify_failed = ref None in
      (match verify_target with
      | None -> ()
      | Some vfile ->
        let rep =
          Verify.run
            ~audit:(Audit.report audit)
            ~tags:[ ("source", Filename.basename source_file) ]
            session.Session.plan
        in
        verify_rep := Some rep;
        Printf.printf "--- verify ---\n%s\n" (Verify.summary_line rep);
        List.iter
          (fun (o : Verify.obligation) ->
            match o.Verify.o_verdict with
            | Verify.Proved -> ()
            | Verify.Refuted _ | Verify.Unknown _ ->
              Format.printf "%a@." Verify.pp_obligation o)
          rep.Verify.v_obligations;
        if vfile <> "" then
          export (Some vfile) (fun () -> Verify.to_json_string ~indent:1 rep);
        if not (Verify.ok rep) then
          verify_failed :=
            Some
              (fail
                 (Printf.sprintf
                    "plan verification failed: %d refuted, %d undecided \
                     obligation(s)"
                    rep.Verify.v_refuted rep.Verify.v_unknown)));
      (match server with
      | None -> ()
      | Some srv ->
        (* Linger after the run (and after the exports, so files never
           wait on a scrape window) for one-shot scrapers like CI curl,
           then shut the endpoint down. *)
        if serve_linger > 0. then Scrape.serve_for srv ~seconds:serve_linger;
        Scrape.close srv);
      match !replay_failed with
      | Some code -> code
      | None -> (
      match !verify_failed with
      | Some code -> code
      | None -> (
      match explain with
      | None -> 0
      | Some target -> (
        let rep = Audit.report audit in
        (* Join the verifier's view when --verify ran: the same site's
           proof obligations, right after its journal provenance. *)
        let vtext =
          Option.bind !verify_rep (fun r -> Verify.explain r target)
        in
        match (Audit.explain rep target, vtext) with
        | None, None ->
          fail
            (Printf.sprintf
               "no write site matches %S (expected a site address or a \
                sym-matched pseudo; try --audit to list them)"
               target)
        | atext, vtext ->
          Option.iter print_string atext;
          Option.iter
            (fun t -> Printf.printf "--- verify obligations ---\n%s\n" t)
            vtext;
          0)))
    end
  with e -> (
    match Frontend.error_message e with Some m -> fail m | None -> raise e)

let source_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"SOURCE.mc"
       ~doc:"Mini-C source file to debug.")

let watch_arg =
  Arg.(value & opt_all string [] & info [ "w"; "watch" ] ~docv:"VAR[.FIELD]"
       ~doc:"Set a data breakpoint on a global variable or struct field. \
             Repeatable.")

let strategy_arg =
  Arg.(value & opt strategy_conv Strategy.Bitmap_inline_registers
       & info [ "s"; "strategy" ] ~docv:"STRATEGY"
           ~doc:"Write-check strategy: Bitmap, BitmapInline, \
                 BitmapInlineRegisters, Cache, CacheInline, HashTable, \
                 TrapCheck, HardwareWatch1, HardwareWatch4, none.")

let opt_arg =
  Arg.(value & opt opt_conv Instrument.O0 & info [ "O"; "opt" ] ~docv:"LEVEL"
       ~doc:"Check elimination: none, symbol, or full (symbol + loop).")

let reads_arg =
  Arg.(value & flag & info [ "reads" ]
       ~doc:"Also monitor read instructions (the paper's sec 5 extension).")

let aliases_arg =
  Arg.(value & flag & info [ "check-aliases" ]
       ~doc:"Guard loop-optimized checks with alias regions (sec 4.5).")

let dump_asm_arg =
  Arg.(value & flag & info [ "dump-asm" ]
       ~doc:"Print the instrumented assembly instead of running.")

let stats_arg =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print execution statistics.")

let metrics_arg =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
       ~doc:"Write the telemetry report as Prometheus-style exposition \
             text to $(docv) after the run.")

let trace_arg =
  Arg.(value & opt int 0 & info [ "trace" ] ~docv:"N"
       ~doc:"Keep the last $(docv) monitor-hit events in a ring buffer \
             and dump them after the run.")

let fuel_arg =
  Arg.(value & opt int 500_000_000 & info [ "fuel" ] ~docv:"N"
       ~doc:"Instruction budget before giving up.")

let audit_file_arg =
  Arg.(value & opt (some string) None & info [ "audit" ] ~docv:"FILE"
       ~doc:"Write the analysis-provenance journal (one verdict per write \
             site, patch and region lifecycle events, bound-lattice \
             fixpoints, checkpoint/replay lifecycle) as versioned \
             dbp-audit/2 JSON to $(docv) after the run.")

let explain_arg =
  Arg.(value & opt (some string) None & info [ "explain" ]
       ~docv:"ADDR|PSEUDO"
       ~doc:"After the run, explain why the matching write sites kept or \
             lost their checks: the sec 4.2/4.3 verdict, its bound \
             expressions and lattice derivation, and any runtime patch \
             events.  $(docv) is a site address (0x-hex or decimal) or a \
             sym-matched pseudo name such as 'g' or 'main.i'.")

let verify_arg =
  Arg.(value & opt ~vopt:(Some "") (some string) None & info [ "verify" ]
       ~docv:"FILE"
       ~doc:"Translation-validate the instrumentation plan: re-prove \
             every eliminated check (sec 4.2 symbol-table re-match, sec \
             4.3 invariant/range interval arguments, pre-header \
             placement, dominance, alias obligations, patch-stub and \
             frame integrity) from the pipeline outputs alone, \
             cross-checked against the audit journal.  Prints the \
             obligation summary; with $(docv), also writes the \
             dbp-verify/1 JSON report there.  Any refuted or undecided \
             obligation fails the run (exit 1).")

let chrome_trace_arg =
  Arg.(value & opt (some string) None & info [ "chrome-trace" ] ~docv:"FILE"
       ~doc:"Write the pipeline phase spans (compile, lift, symopt, \
             loopopt, plan, instrument, run) as a Chrome trace_event JSON \
             array to $(docv) — loadable in Perfetto or chrome://tracing.")

let checkpoint_every_arg =
  Arg.(value & opt (some positive_int) None & info [ "checkpoint-every" ] ~docv:"N"
       ~doc:"Record the run through the time-travel engine, taking a \
             copy-on-write checkpoint every $(docv) executed instructions \
             (enables --last-write and --travel; implied at N=10000 when \
             either is given without it).")

let last_write_arg =
  Arg.(value & opt (some string) None & info [ "last-write" ]
       ~docv:"ADDR|VAR"
       ~doc:"After the run, answer \"who wrote this word last?\" \
             retroactively: restore the nearest checkpoint and re-execute \
             under an invisible watch, reporting the exact instruction \
             index, pc, old/new value and write type of the final store \
             to $(docv) (0x-hex, decimal, or a global variable name).")

let travel_arg =
  Arg.(value & opt (some int) None & info [ "travel" ] ~docv:"N"
       ~doc:"After the run, move the machine back to its state just \
             after instruction $(docv) of the recorded execution \
             (restore the latest checkpoint at or before it, re-execute \
             the gap under the determinism guard).")

let profile_arg =
  Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"FILE"
       ~doc:"Enable the hot-path profiler and write its dbp-profile/1 \
             JSON report (basic blocks, edges, functions, hottest \
             back-edges with loop bodies, per-block check density) to \
             $(docv) after the run.")

let flamegraph_arg =
  Arg.(value & opt (some string) None & info [ "flamegraph" ] ~docv:"FILE"
       ~doc:"Enable the hot-path profiler and write folded call stacks \
             ('main;f;g <instrs>' lines, loadable by flamegraph.pl and \
             speedscope) to $(docv) after the run.")

let timeseries_arg =
  Arg.(value & opt (some string) None & info [ "timeseries" ] ~docv:"FILE"
       ~doc:"Arm the time-series sampler (see --sample-every) and write \
             its dbp-timeseries/1 JSON document — sampling metadata, the \
             cumulative counter snapshots along the instruction axis, and \
             windowed peak/mean rate summaries — to $(docv) after the run.")

let heatmap_arg =
  Arg.(value & opt (some string) None & info [ "heatmap" ] ~docv:"FILE"
       ~doc:"Record an address-space heatmap (per-page write/check/hit \
             density plus monitored-page marks) and render it to $(docv) \
             after the run.  The extension picks the format: .ppm a \
             plain-text PPM image (red writes, green checks, blue hits), \
             .json the dbp-heatmap/1 document, anything else an aligned \
             text table.")

let sample_every_arg =
  Arg.(value & opt positive_int 100_000 & info [ "sample-every" ] ~docv:"N"
       ~doc:"Sampling interval in executed instructions for --timeseries \
             and --serve-metrics (default 100000).")

let serve_metrics_arg =
  Arg.(value & opt (some int) None & info [ "serve-metrics" ] ~docv:"PORT"
       ~doc:"Serve the live telemetry report as Prometheus exposition \
             text at http://127.0.0.1:$(docv)/metrics while the program \
             runs (0 binds an ephemeral port, printed at startup).  \
             Scrapes are answered from the sampling hook, within one \
             --sample-every interval.")

let serve_linger_arg =
  Arg.(value & opt float 0. & info [ "serve-linger" ] ~docv:"SECONDS"
       ~doc:"Keep answering --serve-metrics scrapes for $(docv) seconds \
             after the run and its exports finish — a window for one-shot \
             scrapers to collect the final counters.")

let cmd =
  let doc = "practical data breakpoints for mini-C programs" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Compiles a mini-C program with a naive debug compiler, patches a \
         write check after every store instruction (Wahbe, Lucco & Graham, \
         PLDI 1993), and runs it on a cycle-counting SPARC-subset \
         simulator.  Each update of a watched variable is reported with \
         the writing function, including writes through pointers.";
    ]
  in
  Cmd.v
    (Cmd.info "dbreak" ~version:"1.3" ~doc ~man)
    Term.(
      const run_cmd $ source_arg $ watch_arg $ strategy_arg $ opt_arg
      $ aliases_arg $ reads_arg $ dump_asm_arg $ stats_arg $ metrics_arg
      $ trace_arg $ fuel_arg $ audit_file_arg $ explain_arg $ verify_arg
      $ chrome_trace_arg $ checkpoint_every_arg $ last_write_arg
      $ travel_arg $ profile_arg $ flamegraph_arg $ timeseries_arg
      $ heatmap_arg $ sample_every_arg $ serve_metrics_arg
      $ serve_linger_arg)

(* Conventional exit codes: 0 success (including --help/--version), 1 a
   runtime failure reported by the tool itself ({!fail}), 2 a
   command-line usage error (unknown flag, missing option argument) —
   cmdliner's default of 124 for the latter surprises shell scripts and
   CI alike.  Since [run_cmd] never errors through cmdliner, every
   [Error] from [eval_value] is a usage error. *)
let () =
  exit
    (match Cmd.eval_value cmd with
    | Ok (`Ok code) -> code
    | Ok `Version | Ok `Help -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> 3)
