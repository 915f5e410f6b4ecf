open Dbp

(* Run workloads under instrumentation configurations, with caching of
   uninstrumented baselines.

   The harness may run cells on several domains at once (see [Pool]),
   so the baseline cache is mutex-protected.  The simulator itself is
   deterministic and shares nothing between [Cpu.t] instances, so a
   duplicated baseline computation (two domains missing the cache for
   the same workload at the same time) is merely redundant work that
   stores the same value twice. *)

let fuel = 200_000_000

type run = { cycles : int; instrs : int; stores : int; loads : int; exit_code : int }

(* --- baseline runs --------------------------------------------------------- *)

let cache_mu = Mutex.create ()
let baseline_cache : (string, run) Hashtbl.t = Hashtbl.create 16

let baseline (w : Workloads.Workload.t) : run =
  match
    Mutex.protect cache_mu (fun () -> Hashtbl.find_opt baseline_cache w.name)
  with
  | Some r -> r
  | None ->
    let linked = Minic.Compile.compile_and_link w.source in
    let cpu = Machine.Cpu.create linked.image in
    Machine.Cpu.install_basic_services cpu;
    let exit_code = Machine.Cpu.run ~fuel cpu in
    (match w.expected_exit with
    | Some e when e <> exit_code ->
      failwith (Printf.sprintf "%s: baseline exit %d <> expected %d" w.name exit_code e)
    | _ -> ());
    let s = Machine.Cpu.stats cpu in
    let r =
      { cycles = s.Machine.Cpu.cycles; instrs = s.Machine.Cpu.instrs;
        stores = s.Machine.Cpu.stores; loads = s.Machine.Cpu.loads; exit_code }
    in
    Mutex.protect cache_mu (fun () -> Hashtbl.replace baseline_cache w.name r);
    r

let options_for (w : Workloads.Workload.t) ?(opt = Instrument.O0)
    ?(check_aliases = false) ?(nop_padding = 0) ?(seg_bits = Layout.default_seg_bits)
    ?(monitor_reads = false) ?(disabled_guard = true) ?(single_cache = false)
    strategy =
  {
    Instrument.strategy;
    opt;
    check_aliases;
    layout = Layout.v ~seg_bits ();
    fortran_idiom = Workloads.Workload.fortran_idiom w;
    instrument_runtime = true;
    nop_padding;
    exclude = w.library_functions;
    monitor_reads;
    disabled_guard;
    single_cache;
  }

(* Run instrumented; [enable] turns monitoring on with no regions (the
   monitor-miss steady state Table 1 measures), and [setup] may arm
   regions or hooks before the run.  With [absorb] (the default) the
   session's pipeline spans go to this domain's tracer and its final
   report and audit summary to this domain's sinks, so the harness can
   print one merged, scheduling-independent summary at the end. *)
let instrumented ?(enable = true) ?(absorb = true) ?(setup = ignore)
    ?(profile = false) ?sample_every ?(heatmap = false) options
    (w : Workloads.Workload.t) : run * Session.t =
  let session =
    Session.create
      ?trace:(if absorb then Some (Pool.trace_sink ()) else None)
      ~options ~profile ?sample_every ~heatmap w.source
  in
  if enable then Mrs.enable session.Session.mrs;
  setup session;
  let exit_code, _ = Session.run ~fuel session in
  (match w.expected_exit with
  | Some e when e <> exit_code ->
    failwith
      (Printf.sprintf "%s under %s: exit %d <> expected %d" w.name
         (Strategy.to_string options.Instrument.strategy) exit_code e)
  | _ -> ());
  let s = Session.stats session in
  let r =
    { cycles = s.Machine.Cpu.cycles; instrs = s.Machine.Cpu.instrs;
      stores = s.Machine.Cpu.stores; loads = s.Machine.Cpu.loads; exit_code }
  in
  if absorb then begin
    Telemetry.absorb (Pool.telemetry_sink ()) (Session.report session);
    Pool.absorb_audit_summary (Audit.summary session.Session.audit)
  end;
  (r, session)

(* The one overhead measurement every table's percentage comes from:
   the cycles [w] takes instrumented with [options] over its
   uninstrumented baseline, in percent, with the session for callers
   that read more off the same run. *)
let overhead ?enable ?absorb ?setup options w =
  let r, session = instrumented ?enable ?absorb ?setup options w in
  (Stats.pct (baseline w).cycles r.cycles, session)
