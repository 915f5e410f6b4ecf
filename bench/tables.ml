open Dbp

(* Reproduction of every table and figure in the paper's evaluation.
   Overheads are ratios of simulated cycle counts (see DESIGN.md §2);
   the paper's corresponding numbers are printed alongside each table
   in EXPERIMENTS.md.

   Every experiment returns what it prints as data ({!Table.part}s),
   and {!Table.print} lays out every table.  The per-row (or
   per-sweep-point) cell computations go through {!Pool.map}, which
   shards them across worker domains and returns results in input
   order, so the printed tables are byte-identical for every [-j].
   Every overhead percentage is {!Runner.overhead}'s. *)

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

(* The attached-vs-detached tables' columns and rows: the observer's
   state, the run's cycles and instructions, then [n] counts of its
   own, or [-] where it was detached. *)
let on_off_columns observer extra =
  Table.columns ([ (observer, 10); ("Cycles", 14); ("Instrs", 14) ] @ extra)

let on_off_row w on (r : Runner.run) n extra =
  ( lang_tag w,
    Table.Str (if on then "on" else "off")
    :: Table.Int r.Runner.cycles
    :: Table.Int r.Runner.instrs
    ::
    (match extra with
    | Some xs -> List.map (fun x -> Table.Int x) xs
    | None -> List.init n (fun _ -> Table.Str "-")) )

(* --- measured columns and their average rows --------------------------------- *)

(* A column of a per-workload table: its header and width, and the
   value it measures on one workload. *)
type measured = Table.column * (Workloads.Workload.t -> float)

(* An overhead column: the check configuration [options w], measured
   by [Runner.overhead] with monitoring [enable]d. *)
let ovh ?width ?(enable = true) header options : measured =
  (Table.col ?width header, fun w -> fst (Runner.overhead ~enable (options w) w))

let strategy s w = Runner.options_for w s
let bir = Strategy.Bitmap_inline_registers

(* One [Pool.map] cell per workload, measuring its columns left to right. *)
let measure (cols : measured list) =
  Pool.map (fun w -> (w, List.map (fun (_, f) -> f w) cols)) workloads

let is_lang lang (w : Workloads.Workload.t) = w.lang = lang
let c_avg = ("C AVERAGE", is_lang Workloads.Workload.C)
let fortran_avg = ("FORTRAN AVERAGE", is_lang Workloads.Workload.Fortran)
let overall_avg = ("OVERALL AVERAGE", fun _ -> true)
let by_lang = [ c_avg; fortran_avg; overall_avg ]
let average = ("AVERAGE", fun _ -> true)

(* The average rows: for each (label, keep) group, every column's mean
   over the workloads the group keeps. *)
let averages groups rows =
  List.map
    (fun (label, keep) ->
      let kept = List.filter_map (fun (w, xs) -> if keep w then Some xs else None) rows in
      ( label,
        List.mapi
          (fun i _ -> Stats.mean (List.map (fun xs -> List.nth xs i) kept))
          (snd (List.hd rows)) ))
    groups

(* A table of percentages with a row per workload and then [groups]'s
   average rows. *)
let pct_table ~title ?notes ?(groups = by_lang) columns rows =
  Table.Table
    (Table.v ~title ?notes columns
       (List.map
          (fun (label, xs) -> (label, List.map Table.pct1 xs))
          (List.map (fun (w, xs) -> (lang_tag w, xs)) rows @ averages groups rows)))

(* --- nop-insertion cache-effects experiment (sigma of Table 1) ---------------- *)

let nop_paddings = [ 2; 4; 8; 16; 32 ]

let nop_cols =
  List.map
    (fun n ->
      ovh ~width:10 ~enable:false (string_of_int n) (fun w ->
          Runner.options_for w ~nop_padding:n Strategy.Nocheck))
    nop_paddings

(* The overhead at each padding, and the least-squares slope per nop
   and residual σ over them. *)
let nop_sweep w =
  let ys = List.map (fun (_, f) -> f w) nop_cols in
  let _, slope, sigma =
    Stats.linreg (List.map2 (fun n y -> (float_of_int n, y)) nop_paddings ys)
  in
  (ys, slope, sigma)

let nops () =
  let rows = Pool.map (fun w -> (w, nop_sweep w)) workloads in
  [
    Table.Table
      (Table.v ~title:"Nop-insertion experiment (cache alignment effects, sec 3.3.1)"
         (List.map fst nop_cols
         @ [ Table.col "slope/nop"; Table.col ~width:10 "sigma" ])
         (List.map
            (fun (w, (ys, slope, sigma)) ->
              ( lang_tag w,
                List.map Table.pct1 ys @ [ Table.Pct (2, slope); Table.Pct (2, sigma) ] ))
            rows));
  ]

(* --- Table 1: write check implementations ----------------------------------- *)

(* The disabled column and the five strategy variants of Table 1, plus
   the cache-alignment sigma from the nop experiment. *)
let table1 () =
  let cols =
    [
      ovh ~enable:false "Disabled" (strategy bir);
      ovh "Bitmap" (strategy Strategy.Bitmap);
      ovh "BmpInline" (strategy Strategy.Bitmap_inline);
      ovh "BmpInlRegs" (strategy bir);
      ovh "Cache" (strategy Strategy.Cache);
      ovh "CacheInl" (strategy Strategy.Cache_inline);
      (Table.col "sigma", fun w -> let _, _, sigma = nop_sweep w in sigma);
    ]
  in
  [ pct_table ~title:"Table 1: monitored region service overhead" (List.map fst cols)
      (measure cols) ]

(* --- Figure 3: segment cache locality vs segment size -------------------------- *)

(* The miss count comes from the telemetry registry's
   [Cache_misses_by_type] counter — [Session.create] probes the
   per-write-type miss handlers itself for segment-cache strategies, so
   Figure 3 and the telemetry reports share one definition of a miss. *)
let cache_hit_rate ~seg_bits (w : Workloads.Workload.t) =
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
  let cols =
    List.map
      (fun sb ->
        (Table.col ~width:10 (Printf.sprintf "%dw" ((1 lsl sb) / 4)), cache_hit_rate ~seg_bits:sb))
      [ 7; 8; 9; 10; 11; 12 ]
  in
  [ pct_table ~title:"Figure 3: segment cache locality (hit %) vs segment size"
      ~groups:[ average ] (List.map fst cols) (measure cols) ]

(* --- Table 2: write check elimination -------------------------------------------- *)

let table2 () =
  let sym_col = ovh "Sym" (fun w -> Runner.options_for w ~opt:Instrument.O_symbol bir) in
  let rows =
    Pool.map
      (fun (w : Workloads.Workload.t) ->
        (* Full optimization run. *)
        let full_ovh, session =
          Runner.overhead (Runner.options_for w ~opt:Instrument.O_full bir) w
        in
        let plan = session.Session.plan in
        let execs = Telemetry.current session.Session.telemetry in
        let total = float_of_int (max 1 (execs Telemetry.Check_execs)) in
        let sym = float_of_int (execs Telemetry.Sym_eliminated_execs) in
        (* Dynamic pre-header checks generated, and loop-eliminated
           executions split into LI vs Range by each origin's planned
           check kind. *)
        let li_dyn = ref 0 and range_dyn = ref 0 in
        let gen_li = ref 0 and gen_range = ref 0 in
        let kind_of_origin = Hashtbl.create 64 in
        List.iter
          (fun (p : Loopopt.loop_plan) ->
            let entries = Telemetry.loop_entries session.Session.telemetry p.loop_id in
            List.iter
              (function
                | Loopopt.Inv { origin; _ } ->
                  Hashtbl.replace kind_of_origin origin li_dyn;
                  gen_li := !gen_li + entries
                | Loopopt.Rng { origin; _ } ->
                  Hashtbl.replace kind_of_origin origin range_dyn;
                  gen_range := !gen_range + entries)
              p.checks)
          plan.Instrument.loop_plans;
        List.iter
          (fun (s : Instrument.site) ->
            match (s.status, Hashtbl.find_opt kind_of_origin s.origin) with
            | Instrument.Loop_eliminated _, Some dyn ->
              dyn := !dyn + Session.site_executions session s.origin
            | _ -> ())
          plan.Instrument.sites;
        let sym_ovh = snd sym_col w in
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
  [ pct_table ~title:"Table 2: write check elimination"
      (List.map Table.col [ "Symbol"; "LI"; "Range"; "Total"; "GenLI"; "GenRng"; "Full" ]
      @ [ fst sym_col ])
      rows ]

(* --- Strategy comparison (sec 1 / Wahbe's pilot study) ----------------------------- *)

(* VM page protection: watch this workload's [seed] word; every store to
   its 4 KiB page faults (~1500 cycles with the fault round trip).  A
   model over the bare run, not an instrumented configuration. *)
let pageprot (w : Workloads.Workload.t) =
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
    Stats.pct (Runner.baseline w).Runner.cycles (s.Machine.Cpu.cycles + (!faults * 1500))

let strategies () =
  let cols =
    [
      ovh ~width:14 "Bitmap(regs)" (strategy bir);
      ovh ~width:14 "HashTable" (strategy Strategy.Hash_table);
      (* Trap-per-write, measured: every store raises a trap and the
         check runs in the "kernel" (the OCaml MRS), charged a 400-cycle
         context switch on top of the trap cost. *)
      ovh ~width:14 "TrapPerWrite" (strategy Strategy.Trap_check);
      (Table.col ~width:14 "VM-pageprot", pageprot);
      (* Hardware watchpoints: measured zero-overhead when a scalar
         fits the registers; capacity fails for anything bigger. *)
      ovh ~width:14 "HW-watch" (strategy (Strategy.Hardware_watch 4));
    ]
  in
  [ pct_table ~groups:[]
      ~title:"Implementation strategy comparison (sec 1; Wahbe ASPLOS'92 pilot)"
      ~notes:
        [
          "";
          "(dbx-style single-step checking is a constant factor of ~85000x, the paper's";
          "measured value -- 8,500,000% overhead, off this table's scale.)";
          "(HW watchpoints: SPARC/R4000 watch 1 word, i386 watches 4 -- e.g. watching";
          Printf.sprintf "matrix300's %d-word output array is unsupported in hardware.)"
            (22 * 22);
        ]
      (List.map fst cols) (measure cols) ]

(* --- Ablations of the paper's design choices ------------------------------------------ *)

(* Two decisions DESIGN.md calls out, removed one at a time:
   1. the disabled-flag guard (§2.1) — 2 extra instructions per check
      that buy an almost-free "no breakpoints" mode;
   2. per-write-type segment caches (§3.1) vs one shared cache. *)
let ablations () =
  let cols =
    [
      ovh "BIR" (strategy bir);
      ovh "BIR-noguard" (fun w -> Runner.options_for w ~disabled_guard:false bir);
      ovh ~width:14 ~enable:false "BIR-disabled" (strategy bir);
      ovh "Cache4" (strategy Strategy.Cache_inline);
      ovh ~width:14 "Cache-shared" (fun w ->
          Runner.options_for w ~single_cache:true Strategy.Cache_inline);
    ]
  in
  let rows = measure cols in
  let notes =
    match averages [ average ] rows with
    | [ (_, [ bir; noguard; disabled; cache4; shared ]) ] ->
      [
        Printf.sprintf
          "(the guard costs ~%.1f points of steady-state overhead but keeps the"
          (bir -. noguard);
        Printf.sprintf
          " disabled mode at ~%.1f%%; a single shared cache loses ~%.1f points to"
          disabled (shared -. cache4);
        " inter-type interference)";
      ]
    | _ -> assert false
  in
  [ pct_table ~title:"Ablations" ~groups:[ average ] ~notes (List.map fst cols) rows ]

(* --- Read monitoring (sec 5 extension) ----------------------------------------------- *)

(* The paper closes by noting that applications like access-anomaly
   detection need read monitoring too, that reads outnumber writes 2-3x
   dynamically, and that straightforward extensions of the techniques
   handle them.  This table measures that extension: checking every
   read and write vs. writes only.  Loads per store are the
   uninstrumented run's; the average rows' ratio is the ratio of the
   averages. *)
let readwrite () =
  let cols =
    [
      ovh ~width:14 "writes-only" (strategy bir);
      ovh ~width:14 "reads+writes" (fun w ->
          Runner.options_for w ~monitor_reads:true bir);
    ]
  in
  let rows = measure cols in
  let row ls = function
    | [ wo; rw ] -> [ ls; Table.pct1 wo; Table.pct1 rw; Table.Float (2, rw /. wo) ]
    | _ -> assert false
  in
  let loads_per_store w =
    let b = Runner.baseline w in
    float_of_int b.Runner.loads /. float_of_int (max 1 b.Runner.stores)
  in
  [
    Table.Table
      (Table.v ~title:"Read+write monitoring (sec 5 extension)"
         ((Table.col "loads/store" :: List.map fst cols) @ [ Table.col "ratio" ])
         (List.map (fun (w, xs) -> (lang_tag w, row (Table.Float (2, loads_per_store w)) xs)) rows
         @ List.map
             (fun (label, xs) -> (label, row (Table.Str "") xs))
             (averages [ c_avg; overall_avg ] rows)));
  ]

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
      (* Monitor b's last word only: same segment, never written.  Full
         lookups are checks whose target segment holds a monitored
         region: count stores into b's segment. *)
      let full = ref 0 in
      let watch_b (session : Session.t) =
        match Sparc.Symtab.lookup session.Session.symtab "b" with
        | Some { Sparc.Symtab.location = Sparc.Symtab.Absolute addr; _ } ->
          let last = addr + (4 * 127) in
          Mrs.create_region session.Session.mrs (Region.v ~addr:last ~size_bytes:4 ());
          Mrs.enable session.Session.mrs;
          Machine.Cpu.set_store_hook session.Session.cpu (fun _ ~addr ~width:_ ->
              if addr lsr 9 = last lsr 9 then incr full)
        | _ -> failwith "no b"
      in
      (* [watch_b] enables monitoring once the region is armed; these
         sessions are left out of the merged summaries. *)
      let run_with s =
        Runner.overhead ~enable:false ~absorb:false ~setup:watch_b (strategy s w) w
      in
      let co, session = run_with Strategy.Cache in
      let total = Telemetry.current session.Session.telemetry Telemetry.Check_execs in
      let full_pct = 100.0 *. float_of_int !full /. float_of_int (max 1 total) in
      let bo, _ = run_with bir in
      ( string_of_int ratio,
        [ Table.pct1 full_pct; Table.pct1 co; Table.pct1 bo;
          Table.Str (if co < bo then "Cache" else "BmpInlRegs") ] ))
      [ 120; 16; 8; 4; 2; 1 ]
  in
  [
    Table.Table
      (Table.v ~title:"Break-even: segment caching vs BitmapInlineRegisters (sec 3.3.3)"
         ~corner:"ratio" ~label_width:10
         (Table.columns
            [ ("full-lookup%", 14); ("Cache ovh", 14); ("BmpInlRegs ovh", 16); ("winner", 16) ])
         rows);
  ]

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
        ( lang_tag w,
          [ Table.Str (Strategy.to_string s);
            Table.pct1 (fst (Runner.overhead (strategy s w) w)) ] ))
      cells
  in
  [
    Table.Table
      (Table.v ~title:"Smoke subset (monitored, no regions)"
         [ Table.col ~width:22 "Strategy"; Table.col "Overhead" ]
         rows);
  ]

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
        let hit_str =
          match hit with
          | None -> var ^ ": never"
          | Some { Session.wr_hit = h; _ } ->
            Printf.sprintf "%s@%d" var h.Replay.h_insn
        in
        ( lang_tag w,
          [
            Table.Int interval;
            Table.Int (List.length snaps);
            Table.Int (Telemetry.get telemetry Telemetry.Checkpoint_pages_copied);
            Table.Int (Telemetry.get telemetry Telemetry.Checkpoint_pages_shared);
            Table.Int cow_bytes;
            Table.Int deep_bytes;
            Table.pct1 (100.0 *. float_of_int cow_bytes /. float_of_int (max 1 deep_bytes));
            Table.Str hit_str;
            Table.Int lw_replayed;
            Table.Int travel_replayed;
          ] ))
      cells
  in
  [
    Table.Table
      (Table.v ~title:"Checkpoint/replay: interval vs retroactive-query latency (sec 9)"
         (Table.columns
            [ ("interval", 9); ("ckpts", 7); ("pages", 7); ("shared", 8);
              ("COW-B", 10); ("deep-B", 11); ("COW%", 7); ("last-write", 21);
              ("lw-repl", 10); ("tvl-repl", 10) ])
         ~notes:
           [
             "(COW-B = bytes actually captured (copy-on-write deltas + register/cache";
             " state); deep-B = what per-checkpoint full-image copies would cost;";
             " lw-repl = instructions re-executed to answer the last-write query and";
             " return to the recorded end state; tvl-repl = instructions re-executed";
             " to travel to the middle of the run, bounded by the interval)";
           ]
         rows);
  ]

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
  let hottest ((w : Workloads.Workload.t), _, _, rep) =
    match rep with
    | None -> []
    | Some (p : Profile.report) ->
      (match p.Profile.p_functions with
      | f :: _ ->
        [ Printf.sprintf "%-18s hottest function %s (%d instrs exclusive)\n"
            (lang_tag w) f.Profile.fr_name f.Profile.fr_excl_instrs ]
      | [] -> [])
      @
      (match p.Profile.p_backedges with
      | be :: _ ->
        [ Printf.sprintf
            "%-18s hottest back-edge 0x%x -> 0x%x (%d taken, %d blocks, %d \
             check execs in body)\n"
            (lang_tag w) be.Profile.be_from_pc be.Profile.be_to_pc
            be.Profile.be_count
            (List.length be.Profile.be_blocks)
            be.Profile.be_check_execs ]
      | [] -> [])
  in
  (* The kernel workload's full report, under the [-j] byte-parity
     diff: block/edge/function tables and the superblock-candidate
     back-edges are all simulated quantities. *)
  let json =
    match
      List.find_map
        (fun ((w : Workloads.Workload.t), _, _, rep) ->
          if w.name = "030.matrix300" then rep else None)
        rows
    with
    | Some p ->
      Printf.sprintf "\n== dbp-profile/1 (030.matrix300) ==\n%s\n"
        (Profile.to_json_string ~indent:1 p)
    | None -> ""
  in
  [
    Table.Table
      (Table.v ~title:"Hot-path profiler (attached vs detached)"
         (on_off_columns "Profiler" [ ("Blocks", 9); ("Edges", 8); ("Transfers", 11) ])
         (List.map
            (fun (w, on, r, rep) ->
              on_off_row w on r 3
                (Option.map
                   (fun (p : Profile.report) ->
                     [
                       List.length p.Profile.p_blocks;
                       List.length p.Profile.p_edges;
                       List.fold_left
                         (fun acc (f : Profile.fn_report) -> acc + f.Profile.fr_calls)
                         0 p.Profile.p_functions;
                     ])
                   rep))
            rows));
    Table.Text (String.concat "" ("\n== Hottest paths ==\n" :: List.concat_map hottest rows));
    Table.Text json;
    Table.Text
      (String.concat ""
         ("\n== Folded stacks (merged across profiled cells) ==\n"
         :: List.map
              (fun (path, count) -> Printf.sprintf "%s %d\n" path count)
              (Pool.merged_profile ())));
  ]

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
  [
    Table.Table
      (Table.v ~title:"Time-series sampler (attached vs detached)"
         (on_off_columns "Sampler" [ ("Samples", 10); ("Dropped", 10) ])
         (List.map
            (fun (w, on, r, extra) ->
              on_off_row w on r 2
                (Option.map
                   (fun (rep, _, _) ->
                     [ List.length rep.Telemetry.r_samples; rep.Telemetry.r_samples_dropped ])
                   extra))
            rows));
    Table.Text
      (String.concat ""
         (Printf.sprintf "\n== Windowed rates (per %d instrs) ==\n" sample_interval
         :: List.filter_map
              (fun (w, _, _, extra) ->
                Option.map
                  (fun (rep, _, _) ->
                    Printf.sprintf "%s:\n%s" (lang_tag w)
                      (Timeseries.summary_text ~window:sample_interval rep))
                  extra)
              rows));
    Table.Table
      (Table.v ~title:"Address-space heatmap"
         (Table.columns
            [ ("Pages", 8); ("Writes", 12); ("Checks", 12); ("Hits", 10);
              ("MonitoredSilent", 18); ("Conservation", 14) ])
         (List.filter_map
            (fun (w, _, _, extra) ->
              Option.map
                (fun (_, (pages, writes, checks, hits, silent), conserved) ->
                  ( lang_tag w,
                    List.map (fun n -> Table.Int n) [ pages; writes; checks; hits; silent ]
                    @ [ Table.Str (if conserved then "ok" else "VIOLATED") ] ))
                extra)
            rows));
  ]

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
let o_full_session (w : Workloads.Workload.t) =
  Session.create ~options:(Runner.options_for w ~opt:Instrument.O_full bir) w.source

let verify () =
  let rows =
    Pool.map
      (fun (w : Workloads.Workload.t) ->
        let session = o_full_session w in
        let rep =
          Verify.run
            ~audit:(Audit.report session.Session.audit)
            ~tags:[ ("workload", w.name) ]
            session.Session.plan
        in
        (w, rep))
      workloads
  in
  (* Mutation kills.  The three workloads jointly make every operator
     applicable: matrix300 (range checks + sym matches), espresso
     (invariant checks, several plans), li (sym-only, no loop plans). *)
  let mutation_names = [ "030.matrix300"; "008.espresso"; "022.li" ] in
  let sessions =
    Pool.map
      (fun name -> (name, o_full_session (find_workload name)))
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
  let applied = List.filter (fun (_, _, s) -> s <> `NA) kills in
  let killed = List.filter (fun (_, _, s) -> s = `Killed) applied in
  [
    Table.Table
      (Table.v ~title:"Plan verification (O_full, all obligations)"
         (Table.columns
            [ ("Obligations", 14); ("Proved", 10); ("Refuted", 10); ("Unknown", 10) ])
         ~notes:
           (List.map
              (fun ((w : Workloads.Workload.t), rep) ->
                Printf.sprintf "%s: %s" w.Workloads.Workload.name (Verify.summary_line rep))
              rows)
         (List.map
            (fun (w, (rep : Verify.report)) ->
              ( lang_tag w,
                List.map
                  (fun n -> Table.Int n)
                  [ List.length rep.Verify.v_obligations; rep.Verify.v_proved;
                    rep.Verify.v_refuted; rep.Verify.v_unknown ] ))
            rows));
    Table.Table
      (Table.v ~title:"Mutation kills (operator x workload)" ~corner:"Mutant"
         ~label_width:26
         (List.map (Table.col ~width:16) mutation_names)
         ~notes:
           [
             Printf.sprintf "mutation kill rate: %d/%d (%d%%)" (List.length killed)
               (List.length applied)
               (if applied = [] then 0
                else 100 * List.length killed / List.length applied);
           ]
         (List.map
            (fun (mut : Verify_mutate.mutant) ->
              let m = mut.Verify_mutate.m_name in
              (m, List.map (fun name -> Table.Str (status m name)) mutation_names))
            Verify_mutate.all));
  ]
