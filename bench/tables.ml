open Dbp

(* Reproduction of every table and figure in the paper's evaluation.
   Overheads are ratios of simulated cycle counts (see DESIGN.md §2);
   the paper's corresponding numbers are printed alongside each table
   in EXPERIMENTS.md.

   Every experiment is phrased compute-then-print: the per-row (or
   per-sweep-point) cell computations go through {!Pool.map}, which
   shards them across worker domains and returns results in input
   order, so the printed tables are byte-identical for every [-j]. *)

let workloads = Workloads.Spec.all

let find_workload name =
  match Workloads.Spec.find name with
  | Some w -> w
  | None -> failwith ("unknown workload " ^ name)

(* The attached-vs-detached experiments' cells: each workload once with
   its observer on, once with it off. *)
let on_off_cells names =
  List.concat_map
    (fun n ->
      let w = find_workload n in
      [ (w, true); (w, false) ])
    names

let lang_tag (w : Workloads.Workload.t) =
  Printf.sprintf "(%s) %s" (Workloads.Workload.lang_to_string w.lang) w.name

let averages rows =
  (* rows: (workload, float list); returns (c_avg, f_avg, all_avg) per column *)
  let cols = List.length (snd (List.hd rows)) in
  let avg filt col =
    let vals =
      List.filter_map
        (fun ((w : Workloads.Workload.t), xs) ->
          if filt w then Some (List.nth xs col) else None)
        rows
    in
    Stats.mean vals
  in
  let line name filt =
    (name, List.init cols (fun c -> avg filt c))
  in
  [
    line "C AVERAGE" (fun w -> w.Workloads.Workload.lang = Workloads.Workload.C);
    line "FORTRAN AVERAGE" (fun w -> w.Workloads.Workload.lang = Workloads.Workload.Fortran);
    line "OVERALL AVERAGE" (fun _ -> true);
  ]

let print_table ~title ~headers rows_with_names =
  Printf.printf "\n== %s ==\n" title;
  Printf.printf "%-18s" "Programs";
  List.iter (fun h -> Printf.printf "%12s" h) headers;
  print_newline ();
  List.iter
    (fun (name, values) ->
      Printf.printf "%-18s" name;
      List.iter (fun v -> Printf.printf "%11.1f%%" v) values;
      print_newline ())
    rows_with_names

(* --- nop-insertion cache-effects experiment (sigma of Table 1) ---------------- *)

let nop_sigma (w : Workloads.Workload.t) =
  let points =
    List.map
      (fun n ->
        let o = { (Runner.options_for w Strategy.Nocheck) with Instrument.nop_padding = n } in
        let r, _ = Runner.instrumented ~enable:false o w in
        (float_of_int n, Runner.overhead w r))
      [ 2; 4; 8; 16; 32 ]
  in
  let _, _, sigma = Stats.linreg points in
  sigma

(* --- Table 1: write check implementations ----------------------------------- *)

(* The disabled column and the five strategy variants of Table 1, plus
   the cache-alignment sigma from the nop experiment. *)
let table1 () =
  let strategies =
    [
      Strategy.Bitmap;
      Strategy.Bitmap_inline;
      Strategy.Bitmap_inline_registers;
      Strategy.Cache;
      Strategy.Cache_inline;
    ]
  in
  let rows =
    Pool.map
      (fun (w : Workloads.Workload.t) ->
        let disabled =
          let o = Runner.options_for w Strategy.Bitmap_inline_registers in
          let r, _ = Runner.instrumented ~enable:false o w in
          Runner.overhead w r
        in
        let per_strategy =
          List.map
            (fun s ->
              let r, _ = Runner.instrumented (Runner.options_for w s) w in
              Runner.overhead w r)
            strategies
        in
        let sigma = nop_sigma w in
        (w, disabled :: per_strategy @ [ sigma ]))
      workloads
  in
  let printable =
    List.map (fun (w, xs) -> (lang_tag w, xs)) rows @ averages rows
  in
  print_table ~title:"Table 1: monitored region service overhead"
    ~headers:
      [ "Disabled"; "Bitmap"; "BmpInline"; "BmpInlRegs"; "Cache"; "CacheInl"; "sigma" ]
    printable

let nops () =
  let rows =
    Pool.map
      (fun (w : Workloads.Workload.t) ->
        let points =
          List.map
            (fun n ->
              let o =
                { (Runner.options_for w Strategy.Nocheck) with Instrument.nop_padding = n }
              in
              let r, _ = Runner.instrumented ~enable:false o w in
              (float_of_int n, Runner.overhead w r))
            [ 2; 4; 8; 16; 32 ]
        in
        let _, slope, sigma = Stats.linreg points in
        (w, points, slope, sigma))
      workloads
  in
  Printf.printf "\n== Nop-insertion experiment (cache alignment effects, sec 3.3.1) ==\n";
  Printf.printf "%-18s%10s%10s%10s%10s%10s%12s%10s\n" "Programs" "2" "4" "8" "16"
    "32" "slope/nop" "sigma";
  List.iter
    (fun (w, points, slope, sigma) ->
      Printf.printf "%-18s" (lang_tag w);
      List.iter (fun (_, y) -> Printf.printf "%9.1f%%" y) points;
      Printf.printf "%11.2f%%%9.2f%%\n" slope sigma)
    rows

(* --- Figure 3: segment cache locality vs segment size -------------------------- *)

(* The miss count comes from the telemetry registry's
   [Cache_misses_by_type] counter — [Session.create] probes the
   per-write-type miss handlers itself for segment-cache strategies, so
   Figure 3 and the telemetry reports share one definition of a miss. *)
let cache_hit_rate (w : Workloads.Workload.t) ~seg_bits =
  let o = Runner.options_for w ~seg_bits Strategy.Cache in
  let _, session = Runner.instrumented o w in
  let misses =
    Array.fold_left ( + ) 0
      (Telemetry.get_typed session.Session.telemetry
         Telemetry.Cache_misses_by_type)
  in
  let total =
    Telemetry.current session.Session.telemetry Telemetry.Check_execs
  in
  if total = 0 then 0.0
  else 100.0 *. (1.0 -. (float_of_int misses /. float_of_int total))

let figure3 () =
  let sizes = [ 7; 8; 9; 10; 11; 12 ] in
  let rows =
    Pool.map
      (fun (w : Workloads.Workload.t) ->
        (w, List.map (fun sb -> cache_hit_rate w ~seg_bits:sb) sizes))
      workloads
  in
  Printf.printf "\n== Figure 3: segment cache locality (hit %%) vs segment size ==\n";
  Printf.printf "%-18s" "Programs";
  List.iter (fun sb -> Printf.printf "%9dw" ((1 lsl sb) / 4)) sizes;
  print_newline ();
  let all_rates =
    List.map
      (fun ((w : Workloads.Workload.t), rates) ->
        Printf.printf "%-18s" (lang_tag w);
        List.iter (fun r -> Printf.printf "%9.1f%%" r) rates;
        print_newline ();
        rates)
      rows
  in
  Printf.printf "%-18s" "AVERAGE";
  List.iteri
    (fun i _ ->
      let col = List.map (fun rates -> List.nth rates i) all_rates in
      Printf.printf "%9.1f%%" (Stats.mean col))
    sizes;
  print_newline ()

(* --- Table 2: write check elimination -------------------------------------------- *)

let table2 () =
  let rows =
    Pool.map
      (fun (w : Workloads.Workload.t) ->
        (* Full optimization run. *)
        let o_full =
          Runner.options_for w ~opt:Instrument.O_full Strategy.Bitmap_inline_registers
        in
        let full_run, session = Runner.instrumented o_full w in
        let plan = session.Session.plan in
        let execs = Telemetry.current session.Session.telemetry in
        let total = float_of_int (max 1 (execs Telemetry.Check_execs)) in
        let sym = float_of_int (execs Telemetry.Sym_eliminated_execs) in
        (* Split loop-eliminated executions into LI vs Range by each
           origin's planned check kind. *)
        let kind_of_origin =
          let tbl = Hashtbl.create 64 in
          List.iter
            (fun (p : Loopopt.loop_plan) ->
              List.iter
                (fun c ->
                  match c with
                  | Loopopt.Inv { origin; _ } -> Hashtbl.replace tbl origin `LI
                  | Loopopt.Rng { origin; _ } -> Hashtbl.replace tbl origin `Range)
                p.checks)
            plan.Instrument.loop_plans;
          tbl
        in
        let li_dyn = ref 0 and range_dyn = ref 0 in
        List.iter
          (fun (s : Instrument.site) ->
            match s.status with
            | Instrument.Loop_eliminated _ -> (
              let n = Session.site_executions session s.origin in
              match Hashtbl.find_opt kind_of_origin s.origin with
              | Some `LI -> li_dyn := !li_dyn + n
              | Some `Range -> range_dyn := !range_dyn + n
              | None -> ())
            | Instrument.Checked | Instrument.Sym_eliminated _ -> ())
          plan.Instrument.sites;
        (* Dynamic pre-header checks generated. *)
        let gen_li = ref 0 and gen_range = ref 0 in
        List.iter
          (fun (p : Loopopt.loop_plan) ->
            let entries = Telemetry.loop_entries session.Session.telemetry p.loop_id in
            List.iter
              (fun c ->
                match c with
                | Loopopt.Inv _ -> gen_li := !gen_li + entries
                | Loopopt.Rng _ -> gen_range := !gen_range + entries)
              p.checks)
          plan.Instrument.loop_plans;
        let full_ovh = Runner.overhead w full_run in
        (* Symbol-only run. *)
        let o_sym =
          Runner.options_for w ~opt:Instrument.O_symbol Strategy.Bitmap_inline_registers
        in
        let sym_run, _ = Runner.instrumented o_sym w in
        let sym_ovh = Runner.overhead w sym_run in
        let p x = 100.0 *. (x /. total) in
        ( w,
          [
            p sym;
            p (float_of_int !li_dyn);
            p (float_of_int !range_dyn);
            p (sym +. float_of_int (!li_dyn + !range_dyn));
            p (float_of_int !gen_li);
            p (float_of_int !gen_range);
            full_ovh;
            sym_ovh;
          ] ))
      workloads
  in
  let printable = List.map (fun (w, xs) -> (lang_tag w, xs)) rows @ averages rows in
  print_table ~title:"Table 2: write check elimination"
    ~headers:[ "Symbol"; "LI"; "Range"; "Total"; "GenLI"; "GenRng"; "Full"; "Sym" ]
    printable

(* --- Strategy comparison (sec 1 / Wahbe's pilot study) ----------------------------- *)

let strategies () =
  let rows =
    Pool.map
      (fun (w : Workloads.Workload.t) ->
        let base = Runner.baseline w in
      let bitmap =
        let r, _ =
          Runner.instrumented (Runner.options_for w Strategy.Bitmap_inline_registers) w
        in
        Runner.overhead w r
      in
      let hash =
        let r, _ = Runner.instrumented (Runner.options_for w Strategy.Hash_table) w in
        Runner.overhead w r
      in
      ignore base;
      (* Trap-per-write, measured: every store raises a trap and the
         check runs in the "kernel" (the OCaml MRS), charged a 400-cycle
         context switch on top of the trap cost. *)
      let trap_ovh =
        let r, _ = Runner.instrumented (Runner.options_for w Strategy.Trap_check) w in
        Runner.overhead w r
      in
      (* VM page protection: watch this workload's [seed] word; every
         store to its 4 KiB page faults (~1500 cycles with the fault
         round trip). *)
      let pageprot =
        let linked = Minic.Compile.compile_and_link w.source in
        let watched =
          match Sparc.Assembler.addr_of_label linked.image "seed" with
          | Some a -> Some a
          | None -> (
            match Sparc.Symtab.globals linked.symtab with
            | { Sparc.Symtab.location = Sparc.Symtab.Absolute a; _ } :: _ -> Some a
            | _ -> None)
        in
        match watched with
        | None -> nan
        | Some seed_addr ->
          let page = seed_addr lsr 12 in
          let cpu = Machine.Cpu.create linked.image in
          Machine.Cpu.install_basic_services cpu;
          let faults = ref 0 in
          Machine.Cpu.set_store_hook cpu (fun _ ~addr ~width:_ ->
              if addr lsr 12 = page then incr faults);
          ignore (Machine.Cpu.run ~fuel:Runner.fuel cpu);
          let s = Machine.Cpu.stats cpu in
          Stats.pct base.Runner.cycles (s.Machine.Cpu.cycles + (!faults * 1500))
      in
      (* Hardware watchpoints: measured zero-overhead when a scalar
         fits the registers; capacity fails for anything bigger. *)
      let hw =
        let o = Runner.options_for w (Strategy.Hardware_watch 4) in
        let r, _ = Runner.instrumented o w in
        Runner.overhead w r
      in
        (w, bitmap, hash, trap_ovh, pageprot, hw))
      workloads
  in
  Printf.printf
    "\n== Implementation strategy comparison (sec 1; Wahbe ASPLOS'92 pilot) ==\n";
  Printf.printf "%-18s%14s%14s%14s%14s%14s\n" "Programs" "Bitmap(regs)" "HashTable"
    "TrapPerWrite" "VM-pageprot" "HW-watch";
  List.iter
    (fun (w, bitmap, hash, trap_ovh, pageprot, hw) ->
      Printf.printf "%-18s%13.1f%%%13.1f%%%13.1f%%%13.1f%%%13.1f%%\n" (lang_tag w)
        bitmap hash trap_ovh pageprot hw)
    rows;
  Printf.printf
    "\n(dbx-style single-step checking is a constant factor of ~%.0fx, the paper's\n\
     measured value -- 8,500,000%% overhead, off this table's scale.)\n"
    85000.0;
  Printf.printf
    "(HW watchpoints: SPARC/R4000 watch 1 word, i386 watches 4 -- e.g. watching\n\
     matrix300's %d-word output array is unsupported in hardware.)\n"
    (22 * 22)

(* --- Ablations of the paper's design choices ------------------------------------------ *)

(* Two decisions DESIGN.md calls out, removed one at a time:
   1. the disabled-flag guard (§2.1) — 2 extra instructions per check
      that buy an almost-free "no breakpoints" mode;
   2. per-write-type segment caches (§3.1) vs one shared cache. *)
let ablations () =
  let rows =
    Pool.map
      (fun (w : Workloads.Workload.t) ->
        let bir =
          let r, _ =
            Runner.instrumented (Runner.options_for w Strategy.Bitmap_inline_registers) w
          in
          Runner.overhead w r
        in
        let bir_noguard =
          let o =
            Runner.options_for w ~disabled_guard:false
              Strategy.Bitmap_inline_registers
          in
          let r, _ = Runner.instrumented o w in
          Runner.overhead w r
        in
        let bir_disabled =
          let o = Runner.options_for w Strategy.Bitmap_inline_registers in
          let r, _ = Runner.instrumented ~enable:false o w in
          Runner.overhead w r
        in
        let cache4 =
          let r, _ = Runner.instrumented (Runner.options_for w Strategy.Cache_inline) w in
          Runner.overhead w r
        in
        let cache1 =
          let o = Runner.options_for w ~single_cache:true Strategy.Cache_inline in
          let r, _ = Runner.instrumented o w in
          Runner.overhead w r
        in
        (w, [ bir; bir_noguard; bir_disabled; cache4; cache1 ]))
      workloads
  in
  Printf.printf "\n== Ablations ==\n";
  Printf.printf "%-18s%12s%12s%14s%12s%14s\n" "Programs" "BIR" "BIR-noguard"
    "BIR-disabled" "Cache4" "Cache-shared";
  List.iter
    (fun (w, xs) ->
      Printf.printf "%-18s" (lang_tag w);
      (match xs with
      | [ bir; bir_noguard; bir_disabled; cache4; cache1 ] ->
        Printf.printf "%11.1f%%%11.1f%%%13.1f%%%11.1f%%%13.1f%%\n" bir
          bir_noguard bir_disabled cache4 cache1
      | _ -> assert false))
    rows;
  let rows = List.map snd rows in
  let col i = Stats.mean (List.map (fun xs -> List.nth xs i) rows) in
  Printf.printf "%-18s%11.1f%%%11.1f%%%13.1f%%%11.1f%%%13.1f%%\n" "AVERAGE"
    (col 0) (col 1) (col 2) (col 3) (col 4);
  Printf.printf
    "(the guard costs ~%.1f points of steady-state overhead but keeps the\n\
    \ disabled mode at ~%.1f%%; a single shared cache loses ~%.1f points to\n\
    \ inter-type interference)\n"
    (col 0 -. col 1) (col 2) (col 4 -. col 3)

(* --- Read monitoring (sec 5 extension) ----------------------------------------------- *)

(* The paper closes by noting that applications like access-anomaly
   detection need read monitoring too, that reads outnumber writes 2-3x
   dynamically, and that straightforward extensions of the techniques
   handle them.  This table measures that extension: checking every
   read and write vs. writes only. *)
let readwrite () =
  let rows =
    Pool.map
      (fun (w : Workloads.Workload.t) ->
        let base = Runner.baseline w in
        let wo =
          let r, _ =
            Runner.instrumented (Runner.options_for w Strategy.Bitmap_inline_registers) w
          in
          Runner.overhead w r
        in
        let rw =
          let o =
            Runner.options_for w ~monitor_reads:true Strategy.Bitmap_inline_registers
          in
          let r, _ = Runner.instrumented o w in
          Runner.overhead w r
        in
        ignore base;
        let ls =
          (* measured loads/stores of the uninstrumented run *)
          let linked = Minic.Compile.compile_and_link w.source in
          let cpu = Machine.Cpu.create linked.image in
          Machine.Cpu.install_basic_services cpu;
          ignore (Machine.Cpu.run ~fuel:Runner.fuel cpu);
          let st = Machine.Cpu.stats cpu in
          float_of_int st.Machine.Cpu.loads /. float_of_int (max 1 st.Machine.Cpu.stores)
        in
        (w, ls, [ wo; rw ]))
      workloads
  in
  Printf.printf "\n== Read+write monitoring (sec 5 extension) ==\n";
  Printf.printf "%-18s%12s%14s%14s%12s\n" "Programs" "loads/store" "writes-only"
    "reads+writes" "ratio";
  List.iter
    (fun (w, ls, xs) ->
      let wo = List.nth xs 0 and rw = List.nth xs 1 in
      Printf.printf "%-18s%12.2f%13.1f%%%13.1f%%%12.2f\n" (lang_tag w) ls wo rw
        (rw /. wo))
    rows;
  let rows = List.map (fun (w, _, xs) -> (w, xs)) rows in
  let c_w = Stats.mean (List.filter_map (fun ((w : Workloads.Workload.t), xs) ->
      if w.lang = Workloads.Workload.C then Some (List.nth xs 0) else None) rows) in
  let c_rw = Stats.mean (List.filter_map (fun ((w : Workloads.Workload.t), xs) ->
      if w.lang = Workloads.Workload.C then Some (List.nth xs 1) else None) rows) in
  let a_w = Stats.mean (List.map (fun (_, xs) -> List.nth xs 0) rows) in
  let a_rw = Stats.mean (List.map (fun (_, xs) -> List.nth xs 1) rows) in
  Printf.printf "%-18s%12s%13.1f%%%13.1f%%%12.2f\n" "C AVERAGE" "" c_w c_rw (c_rw /. c_w);
  Printf.printf "%-18s%12s%13.1f%%%13.1f%%%12.2f\n" "OVERALL AVERAGE" "" a_w a_rw
    (a_rw /. a_w)

(* --- Break-even analysis (sec 3.3.3) ------------------------------------------------- *)

let breakeven () =
  let rows =
    Pool.map
      (fun ratio ->
      (* A monitored region sits in array b's segment (on a word the
         loop never writes), so stores to b need full lookups while
         stores to a are segment cache hits. *)
      let source =
        Printf.sprintf
          {|
int a[128];
int apad[128];
int b[128];
int bpad[128];
int main() {
  int k;
  register int i;
  for (k = 0; k < 150; k = k + 1) {
    for (i = 0; i < 120; i = i + 1) {
      if (i %% %d == 0) { b[i] = i; } else { a[i] = i; }
    }
  }
  return 0;
}
|}
          ratio
      in
      let w =
        {
          Workloads.Workload.name = Printf.sprintf "synthetic-%d" ratio;
          lang = Workloads.Workload.C;
          description = "";
          source;
          expected_exit = Some 0;
          library_functions = [];
        }
      in
      let watch_b (session : Session.t) =
        match Sparc.Symtab.lookup session.Session.symtab "b" with
        | Some { Sparc.Symtab.location = Sparc.Symtab.Absolute addr; _ } ->
          (* Monitor the last word only: same segment, never written. *)
          Mrs.create_region session.Session.mrs
            (Region.v ~addr:(addr + (4 * 127)) ~size_bytes:4 ());
          Mrs.enable session.Session.mrs
        | _ -> failwith "no b"
      in
      let run_with strategy =
        let o = Runner.options_for w strategy in
        let session = Session.create ~options:o w.source in
        watch_b session;
        (* Full lookups are checks whose target segment holds a
           monitored region: count stores into b's segment. *)
        let b_seg =
          match Sparc.Symtab.lookup session.Session.symtab "b" with
          | Some { Sparc.Symtab.location = Sparc.Symtab.Absolute a; _ } ->
            (a + (4 * 127)) lsr 9
          | _ -> -1
        in
        let full = ref 0 in
        Machine.Cpu.set_store_hook session.Session.cpu (fun _ ~addr ~width:_ ->
            if addr lsr 9 = b_seg then incr full);
        ignore (Session.run ~fuel:Runner.fuel session);
        let s = Session.stats session in
        ( s.Machine.Cpu.cycles,
          !full,
          Telemetry.current session.Session.telemetry Telemetry.Check_execs )
      in
      let cache_cycles, full_lookups, total = run_with Strategy.Cache in
      let bir_cycles, _, _ = run_with Strategy.Bitmap_inline_registers in
      let base = (Runner.baseline w).Runner.cycles in
      let full_pct = 100.0 *. float_of_int full_lookups /. float_of_int (max 1 total) in
      let co = Stats.pct base cache_cycles and bo = Stats.pct base bir_cycles in
      (ratio, full_pct, co, bo))
      [ 120; 16; 8; 4; 2; 1 ]
  in
  Printf.printf
    "\n== Break-even: segment caching vs BitmapInlineRegisters (sec 3.3.3) ==\n";
  Printf.printf "%-10s%14s%14s%14s%16s\n" "ratio" "full-lookup%" "Cache ovh"
    "BmpInlRegs ovh" "winner";
  List.iter
    (fun (ratio, full_pct, co, bo) ->
      Printf.printf "%-10d%13.1f%%%13.1f%%%13.1f%%%16s\n" ratio full_pct co bo
        (if co < bo then "Cache" else "BmpInlRegs"))
    rows

(* --- Smoke subset (bench-smoke alias) ------------------------------------------- *)

(* A fast subset of Table 1 — the two cheapest workloads under three
   strategies — for quick regression checks: the [bench-smoke] dune
   alias runs it with [-j 1] and [-j 2] and diffs the output. *)
let smoke () =
  let ws = List.map find_workload [ "023.eqntott"; "030.matrix300" ] in
  let strategies =
    [ Strategy.Bitmap; Strategy.Bitmap_inline_registers; Strategy.Cache ]
  in
  let cells =
    List.concat_map (fun w -> List.map (fun s -> (w, s)) strategies) ws
  in
  let rows =
    Pool.map
      (fun ((w : Workloads.Workload.t), s) ->
        let r, _ = Runner.instrumented (Runner.options_for w s) w in
        (w, s, Runner.overhead w r))
      cells
  in
  Printf.printf "\n== Smoke subset (monitored, no regions) ==\n";
  Printf.printf "%-18s%22s%12s\n" "Programs" "Strategy" "Overhead";
  List.iter
    (fun ((w : Workloads.Workload.t), s, ovh) ->
      Printf.printf "%-18s%22s%11.1f%%\n" (lang_tag w) (Strategy.to_string s)
        ovh)
    rows

(* --- Checkpoint/replay: interval vs query latency ------------------------------- *)

(* The time-travel tradeoff of DESIGN.md §9: a shorter checkpoint
   interval costs more recording bytes but bounds how far a retroactive
   query has to re-execute.  Every column printed on stdout is
   simulated/deterministic (checkpoint counts, COW page/byte totals,
   the deep-copy baseline, the exact hit, instructions replayed by the
   query), so the table is byte-identical for every [-j] — the
   [replay-smoke] dune alias diffs it.  What recording and querying
   cost in host time is perfbench's: [replay.record_cost_pct],
   [replay.last_write_ms] and [replay.travel_ms] on the debug-traced
   workload.

   The deep-copy baseline is what the pre-COW [Memory.snapshot] would
   have paid: every checkpoint copies the whole resident image.  The
   COW figure is the registry's [Checkpoint_bytes] — pages actually copied
   (plus register/cache overhead) with everything else shared.  The
   acceptance bound is COW < 2x deep-copy at the default interval;
   in practice it is far below 1x. *)
let replay () =
  let targets = [ ("030.matrix300", "c"); ("022.li", "mark_count") ] in
  let intervals = [ 2_000; 10_000; 50_000 ] in
  let cells =
    List.concat_map
      (fun (name, var) ->
        let w = find_workload name in
        List.map (fun i -> (w, var, i)) intervals)
      targets
  in
  let rows =
    Pool.map
      (fun ((w : Workloads.Workload.t), var, interval) ->
        let telemetry = Telemetry.create () in
        let options = Runner.options_for w Strategy.Bitmap_inline_registers in
        let session =
          Session.create ~options ~telemetry ~trace:(Pool.trace_sink ())
            ~checkpoint_every:interval w.source
        in
        Mrs.enable session.Session.mrs;
        let exit_code, _ = Session.run ~fuel:Runner.fuel session in
        (match w.expected_exit with
        | Some e when e <> exit_code ->
          failwith
            (Printf.sprintf "%s under replay: exit %d <> expected %d" w.name
               exit_code e)
        | _ -> ());
        let r =
          match Session.replay session with
          | Some r -> r
          | None -> assert false
        in
        let journal = Replay.journal r in
        let snaps = Journal.snapshots journal in
        let deep_bytes =
          List.fold_left
            (fun acc snap -> acc + Snapshot.bytes ~prev:None snap)
            0 snaps
        in
        let cow_bytes = Telemetry.get telemetry Telemetry.Checkpoint_bytes in
        let addr =
          match Session.resolve_addr session var with
          | Some a -> a
          | None -> failwith (Printf.sprintf "replay: no global %s" var)
        in
        let hit = Session.last_write session ~addr in
        let lw_replayed = Telemetry.get telemetry Telemetry.Replayed_instrs in
        (* Travel into the middle of the run: the re-execution gap is
           bounded by the checkpoint interval, so this column is the
           interval-vs-latency tradeoff in its purest form. *)
        let travel_replayed =
          Session.time_travel session ~insn:(Replay.end_insn r / 2)
        in
        Telemetry.absorb (Pool.telemetry_sink ()) (Session.report session);
        Pool.absorb_audit_summary (Audit.summary session.Session.audit);
        ( w,
          var,
          interval,
          List.length snaps,
          Telemetry.get telemetry Telemetry.Checkpoint_pages_copied,
          Telemetry.get telemetry Telemetry.Checkpoint_pages_shared,
          cow_bytes,
          deep_bytes,
          hit,
          lw_replayed,
          travel_replayed ))
      cells
  in
  Printf.printf
    "\n== Checkpoint/replay: interval vs retroactive-query latency (sec 9) ==\n";
  Printf.printf "%-18s%9s%7s%7s%8s%10s%11s%7s%21s%10s%10s\n" "Programs"
    "interval" "ckpts" "pages" "shared" "COW-B" "deep-B" "COW%" "last-write"
    "lw-repl" "tvl-repl";
  List.iter
    (fun ((w : Workloads.Workload.t), var, interval, n, pages, shared, cow,
          deep, hit, lw_replayed, travel_replayed) ->
      let hit_str =
        match hit with
        | None -> var ^ ": never"
        | Some { Session.wr_hit = h; _ } ->
          Printf.sprintf "%s@%d" var h.Replay.h_insn
      in
      Printf.printf "%-18s%9d%7d%7d%8d%10d%11d%6.1f%%%21s%10d%10d\n"
        (lang_tag w) interval n pages shared cow deep
        (100.0 *. float_of_int cow /. float_of_int (max 1 deep))
        hit_str lw_replayed travel_replayed)
    rows;
  Printf.printf
    "(COW-B = bytes actually captured (copy-on-write deltas + register/cache\n\
    \ state); deep-B = what per-checkpoint full-image copies would cost;\n\
    \ lw-repl = instructions re-executed to answer the last-write query and\n\
    \ return to the recorded end state; tvl-repl = instructions re-executed\n\
    \ to travel to the middle of the run, bounded by the interval)\n"

(* --- Hot-path profiler: attached vs detached ------------------------------------ *)

(* Same workload and strategy, one run with the profiler attached and
   one without.  The table shows that profiling adds no simulated
   cycles (the counters live outside the machine's cost model): the
   cycle column is identical by construction between the two rows.
   What the profiler costs the host is perfbench's [profile.cost_pct]
   on the debug-traced workload.  Everything printed is simulated and
   deterministic: block/edge/transfer counts, the hottest function and
   back-edge, the full dbp-profile/1 JSON for the matrix300 kernel, and
   the folded stacks merged across cells ([Profile.merge_folded], a
   commutative multiset sum) — so the [profile-smoke] alias can diff
   [-j 1] against [-j 4] byte-for-byte. *)
let profile () =
  let cells = on_off_cells [ "030.matrix300"; "022.li" ] in
  let rows =
    Pool.map
      (fun ((w : Workloads.Workload.t), on) ->
        let r, session =
          Runner.instrumented ~profile:on
            (Runner.options_for w Strategy.Bitmap_inline_registers)
            w
        in
        let rep =
          if on then begin
            let rep = Session.profile_report session in
            Pool.absorb_profile rep.Profile.p_folded;
            Some rep
          end
          else None
        in
        (w, on, r, rep))
      cells
  in
  Printf.printf "\n== Hot-path profiler (attached vs detached) ==\n";
  Printf.printf "%-18s%10s%14s%14s%9s%8s%11s\n" "Programs" "Profiler" "Cycles"
    "Instrs" "Blocks" "Edges" "Transfers";
  List.iter
    (fun ((w : Workloads.Workload.t), on, (r : Runner.run), rep) ->
      match rep with
      | Some (p : Profile.report) ->
        Printf.printf "%-18s%10s%14d%14d%9d%8d%11d\n" (lang_tag w)
          (if on then "on" else "off")
          r.Runner.cycles r.Runner.instrs
          (List.length p.Profile.p_blocks)
          (List.length p.Profile.p_edges)
          (List.fold_left
             (fun acc (f : Profile.fn_report) -> acc + f.Profile.fr_calls)
             0 p.Profile.p_functions)
      | None ->
        Printf.printf "%-18s%10s%14d%14d%9s%8s%11s\n" (lang_tag w)
          (if on then "on" else "off")
          r.Runner.cycles r.Runner.instrs "-" "-" "-")
    rows;
  Printf.printf "\n== Hottest paths ==\n";
  List.iter
    (fun ((w : Workloads.Workload.t), _, _, rep) ->
      match rep with
      | None -> ()
      | Some (p : Profile.report) ->
        (match p.Profile.p_functions with
        | f :: _ ->
          Printf.printf "%-18s hottest function %s (%d instrs exclusive)\n"
            (lang_tag w) f.Profile.fr_name f.Profile.fr_excl_instrs
        | [] -> ());
        (match p.Profile.p_backedges with
        | be :: _ ->
          Printf.printf
            "%-18s hottest back-edge 0x%x -> 0x%x (%d taken, %d blocks, %d \
             check execs in body)\n"
            (lang_tag w) be.Profile.be_from_pc be.Profile.be_to_pc
            be.Profile.be_count
            (List.length be.Profile.be_blocks)
            be.Profile.be_check_execs
        | [] -> ()))
    rows;
  (* The kernel workload's full report, under the [-j] byte-parity
     diff: block/edge/function tables and the superblock-candidate
     back-edges are all simulated quantities. *)
  (match
     List.find_map
       (fun ((w : Workloads.Workload.t), _, _, rep) ->
         if w.name = "030.matrix300" then rep else None)
       rows
   with
  | Some p ->
    Printf.printf "\n== dbp-profile/1 (030.matrix300) ==\n%s\n"
      (Profile.to_json_string ~indent:1 p)
  | None -> ());
  Printf.printf "\n== Folded stacks (merged across profiled cells) ==\n";
  List.iter
    (fun (path, count) -> Printf.printf "%s %d\n" path count)
    (Pool.merged_profile ())

(* --- Time-series sampler & heatmap: attached vs detached ------------------------ *)

(* Same workload and strategy, one run with the sampler and heatmap
   attached (one sample every 50k executed instructions) and one
   without.  Like the profiler, sampling adds no simulated cycles —
   the dispatch-loop test lives outside the machine's cost model, so
   the cycle column is identical by construction between the two rows.
   What sampling costs the host is perfbench's [timeseries.cost_pct]
   and [heatmap.cost_pct] on the debug-traced workload.  Everything
   printed is simulated and deterministic: sample counts, the ring's
   closing values (equal to the end-of-run registry counters — the
   conservation property the test suite pins), windowed peak rates,
   and the per-page heatmap totals — so the [timeseries-smoke] alias
   can diff [-j 1] against [-j 4] byte-for-byte.  The merged-sink
   sample multiset in the trailing telemetry summary is sorted on
   merge (concatenate, then sort by instruction count), which is what
   keeps that section [-j]-independent too. *)
let sample_interval = 50_000

let timeseries_sampler () =
  let cells = on_off_cells [ "030.matrix300"; "022.li" ] in
  let rows =
    Pool.map
      (fun ((w : Workloads.Workload.t), on) ->
        let r, session =
          Runner.instrumented
            ?sample_every:(if on then Some sample_interval else None)
            ~heatmap:on
            (Runner.options_for w Strategy.Bitmap_inline_registers)
            w
        in
        let extra =
          if not on then None
          else begin
            let rep = Session.report session in
            Session.heatmap_sync_regions session;
            let hm = Option.get session.Session.heatmap in
            let conserved =
              Heatmap.total_writes hm = r.Runner.stores
              && (match List.rev rep.Telemetry.r_samples with
                 | last :: _ ->
                   List.assoc_opt "check_execs" last.Telemetry.s_values
                   = List.assoc_opt "check_execs" rep.Telemetry.r_counters
                 | [] -> false)
            in
            Some
              ( rep,
                ( Heatmap.n_pages hm,
                  Heatmap.total_writes hm,
                  Heatmap.total_checks hm,
                  Heatmap.total_hits hm,
                  List.length (Heatmap.never_fired hm) ),
                conserved )
          end
        in
        (w, on, r, extra))
      cells
  in
  Printf.printf "\n== Time-series sampler (attached vs detached) ==\n";
  Printf.printf "%-18s%10s%14s%14s%10s%10s\n" "Programs" "Sampler" "Cycles"
    "Instrs" "Samples" "Dropped";
  List.iter
    (fun ((w : Workloads.Workload.t), on, (r : Runner.run), extra) ->
      match extra with
      | Some (rep, _, _) ->
        Printf.printf "%-18s%10s%14d%14d%10d%10d\n" (lang_tag w)
          (if on then "on" else "off")
          r.Runner.cycles r.Runner.instrs
          (List.length rep.Telemetry.r_samples)
          rep.Telemetry.r_samples_dropped
      | None ->
        Printf.printf "%-18s%10s%14d%14d%10s%10s\n" (lang_tag w)
          (if on then "on" else "off")
          r.Runner.cycles r.Runner.instrs "-" "-")
    rows;
  Printf.printf "\n== Windowed rates (per %d instrs) ==\n" sample_interval;
  List.iter
    (fun ((w : Workloads.Workload.t), _, _, extra) ->
      match extra with
      | None -> ()
      | Some (rep, _, _) ->
        Printf.printf "%s:\n%s" (lang_tag w)
          (Timeseries.summary_text ~window:sample_interval rep))
    rows;
  Printf.printf "\n== Address-space heatmap ==\n";
  Printf.printf "%-18s%8s%12s%12s%10s%18s%14s\n" "Programs" "Pages" "Writes"
    "Checks" "Hits" "MonitoredSilent" "Conservation";
  List.iter
    (fun ((w : Workloads.Workload.t), _, _, extra) ->
      match extra with
      | None -> ()
      | Some (_, (pages, writes, checks, hits, silent), conserved) ->
        Printf.printf "%-18s%8d%12d%12d%10d%18d%14s\n" (lang_tag w) pages
          writes checks hits silent
          (if conserved then "ok" else "VIOLATED"))
    rows

(* --- Plan verification: translation-validation gate ---------------------------- *)

(* Two tables, both pure analysis (no simulation).  First, every
   workload's O_full plan is re-proved by the independent checker: one
   row per workload, and the gate line must read [refuted=0 unknown=0]
   on all ten (CI greps for exactly that).  Second, the mutation-kill
   matrix: every operator of {!Verify_mutate.all} is applied to the
   three workloads that jointly exercise them all, and each applied
   mutant must be refuted — a surviving mutant names a missing proof
   obligation.  Everything printed is deterministic, so the
   [verify-smoke] alias diffs -j 1 against -j 2 byte-for-byte. *)
let verify () =
  let rows =
    Pool.map
      (fun (w : Workloads.Workload.t) ->
        let options =
          Runner.options_for w ~opt:Instrument.O_full
            Strategy.Bitmap_inline_registers
        in
        let session = Session.create ~options w.Workloads.Workload.source in
        let rep =
          Verify.run
            ~audit:(Audit.report session.Session.audit)
            ~tags:[ ("workload", w.name) ]
            session.Session.plan
        in
        (w, rep))
      workloads
  in
  Printf.printf "\n== Plan verification (O_full, all obligations) ==\n";
  Printf.printf "%-18s%14s%10s%10s%10s\n" "Programs" "Obligations" "Proved"
    "Refuted" "Unknown";
  List.iter
    (fun ((w : Workloads.Workload.t), (rep : Verify.report)) ->
      Printf.printf "%-18s%14d%10d%10d%10d\n" (lang_tag w)
        (List.length rep.Verify.v_obligations)
        rep.Verify.v_proved rep.Verify.v_refuted rep.Verify.v_unknown)
    rows;
  List.iter
    (fun ((w : Workloads.Workload.t), rep) ->
      Printf.printf "%s: %s\n" w.Workloads.Workload.name
        (Verify.summary_line rep))
    rows;
  (* Mutation kills.  The three workloads jointly make every operator
     applicable: matrix300 (range checks + sym matches), espresso
     (invariant checks, several plans), li (sym-only, no loop plans). *)
  let mutation_names = [ "030.matrix300"; "008.espresso"; "022.li" ] in
  let sessions =
    Pool.map
      (fun name ->
        let w = find_workload name in
        let options =
          Runner.options_for w ~opt:Instrument.O_full
            Strategy.Bitmap_inline_registers
        in
        (name, Session.create ~options w.Workloads.Workload.source))
      mutation_names
  in
  let cells =
    List.concat_map
      (fun m ->
        List.map
          (fun (name, session) -> (m, name, session))
          sessions)
      Verify_mutate.all
  in
  let kills =
    Pool.map
      (fun ((m : Verify_mutate.mutant), name, (session : Session.t)) ->
        let audit = Some (Audit.report session.Session.audit) in
        match m.Verify_mutate.m_apply session.Session.plan audit with
        | None -> (m.Verify_mutate.m_name, name, `NA)
        | Some (inst', audit') ->
          let rep = Verify.run ?audit:audit' inst' in
          ( m.Verify_mutate.m_name,
            name,
            if rep.Verify.v_refuted > 0 then `Killed else `Survived ))
      cells
  in
  Printf.printf "\n== Mutation kills (operator x workload) ==\n";
  Printf.printf "%-26s%16s%16s%16s\n" "Mutant" "030.matrix300" "008.espresso"
    "022.li";
  let status m name =
    match
      List.find_map
        (fun (m', n, s) ->
          if String.equal m m' && String.equal n name then Some s else None)
        kills
    with
    | Some `Killed -> "killed"
    | Some `Survived -> "SURVIVED"
    | Some `NA | None -> "-"
  in
  List.iter
    (fun (mut : Verify_mutate.mutant) ->
      let m = mut.Verify_mutate.m_name in
      Printf.printf "%-26s%16s%16s%16s\n" m
        (status m "030.matrix300")
        (status m "008.espresso")
        (status m "022.li"))
    Verify_mutate.all;
  let applied =
    List.filter (fun (_, _, s) -> s <> `NA) kills
  in
  let killed =
    List.filter (fun (_, _, s) -> s = `Killed) applied
  in
  Printf.printf "mutation kill rate: %d/%d (%d%%)\n" (List.length killed)
    (List.length applied)
    (if applied = [] then 0
     else 100 * List.length killed / List.length applied)
