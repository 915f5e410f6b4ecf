(* Per-layer attribution for a traced run.

   Layers the workload loop calls are timed by the spans the benchmark
   records around each call; the library's own compile → lift → symopt
   → loopopt → plan → instrument → run spans nest under them.  Run-phase
   layers (interpreter, inline checks, MRS, observers, replay) are found
   by differencing configurations on the workload's own programs, the
   way Table 1's columns are differences — no timer enters the
   interpreter loop.  The daemon's layers are timed from the client. *)

open Dbp
open Inputs

let now = Meter.now
let time = Meter.time

(* --- span table ------------------------------------------------------------ *)

type row = { name : string; count : int; busy : float; self : float }

(* Busy and self time per span name.  Spans complete children-first and
   nest strictly per tracer, so a span's children are the spans one
   level deeper that completed since its siblings did. *)
let table tracers =
  let rows = Hashtbl.create 32 in
  List.iter
    (fun tr ->
      let child = Array.make 64 0.0 in
      List.iter
        (fun (sp : Trace.span) ->
          let d = min sp.sp_depth 62 in
          let self = sp.sp_dur -. child.(d + 1) in
          child.(d + 1) <- 0.0;
          child.(d) <- child.(d) +. sp.sp_dur;
          let r =
            Option.value (Hashtbl.find_opt rows sp.sp_name)
              ~default:{ name = sp.sp_name; count = 0; busy = 0.0; self = 0.0 }
          in
          Hashtbl.replace rows sp.sp_name
            { r with count = r.count + 1; busy = r.busy +. sp.sp_dur; self = r.self +. self })
        (Trace.spans tr))
    tracers;
  List.sort (fun a b -> compare b.busy a.busy) (List.of_seq (Hashtbl.to_seq_values rows))

let table_json rows ~wall =
  Json.List
    (List.map
       (fun r ->
         Json.Obj
           [
             ("layer", Json.Str r.name);
             ("count", Json.Int r.count);
             ("busy_s", Json.Float r.busy);
             ("self_s", Json.Float r.self);
             ("share", Json.Float (r.busy /. wall));
           ])
       rows)

let print_table rows ~wall =
  Printf.eprintf "%-24s %8s %10s %10s %7s\n" "layer" "count" "busy s" "self s" "share";
  List.iter
    (fun r ->
      Printf.eprintf "%-24s %8d %10.4f %10.4f %6.1f%%\n" r.name r.count r.busy r.self
        (100.0 *. r.busy /. wall))
    rows

(* --- the configuration sweep ----------------------------------------------- *)

(* mipsbench's 60M-instruction loop: amortizes start-up in cpu.base_mips. *)
let big_loop =
  {|
int a[256];
int main() {
  int i; int k; int s;
  s = 0;
  for (k = 0; k < 8000; k = k + 1) {
    for (i = 0; i < 250; i = i + 1) {
      a[i] = a[i] + i;
      s = s + a[i];
    }
  }
  return s & 255;
}
|}

let base_run source =
  let linked = Minic.Compile.compile_and_link source in
  let cpu = Machine.Cpu.create linked.Minic.Compile.image in
  Machine.Cpu.install_basic_services cpu;
  let (), dt = time (fun () -> ignore (Machine.Cpu.run ~fuel cpu)) in
  let s = Machine.Cpu.stats cpu in
  (s.Machine.Cpu.instrs, s.Machine.Cpu.cycles, dt)

(* [Disabled] and [Enabled] are the debug-batch session (loop
   optimization) without and with its watch; the observers and the
   replay recorder are each added alone to [Enabled_sym], the same
   session at debug-traced's symbol-table level. *)
type config = Disabled | Enabled | Enabled_sym | Profile | Samples | Heat | Record

type cell = {
  create_s : float;
  run_s : float;
  instrs : int;
  cycles : int;
  counters : (string * int) list;
  queries_s : (string * float) list;  (** replay query wall times, [Record] only *)
}

(* One session of program [p] under [cfg], watching [g] — the
   debug-batch configuration plus at most one observer. *)
let session_cell tr cfg (p : program) g =
  let sess, create_s =
    time (fun () ->
        Trace.with_span tr ~args:[ ("program", p.name) ] "Session.create" (fun () ->
            let profile = cfg = Profile and heatmap = cfg = Heat in
            let sample_every = if cfg = Samples then Some Inproc.sample_every else None in
            let checkpoint_every = if cfg = Record then Some Inproc.checkpoint_every else None in
            let options = if cfg = Disabled || cfg = Enabled then options else replay_options in
            Session.create ~options ~trace:tr ~profile ~profile_clock:now ?sample_every
              ~sample_clock:now ~heatmap ?checkpoint_every p.source))
  in
  let dbg = Debugger.create sess in
  let (), watch_s =
    time (fun () -> if cfg <> Disabled then ignore (Debugger.watch dbg g))
  in
  let (code, _), run_s = time (fun () -> Session.run ~fuel sess) in
  if code <> p.expected_exit then
    failwith (Printf.sprintf "%s: exit %d, expected %d" p.name code p.expected_exit);
  let s = Session.stats sess in
  let queries_s =
    if cfg <> Record then []
    else
      let addr = Option.get (Session.resolve_addr sess g) in
      let q name f = (name, snd (time (fun () -> Trace.with_span tr name f))) in
      let total = Machine.Cpu.instr_count sess.Session.cpu in
      [
        q "Session.last_write" (fun () -> ignore (Session.last_write sess ~addr));
        q "Session.write_history" (fun () ->
            ignore (Session.write_history sess ~lo:addr ~hi:(addr + Inproc.history_bytes)));
        q "Session.time_travel" (fun () -> ignore (Session.time_travel sess ~insn:(total / 2)));
      ]
  in
  {
    create_s = create_s +. watch_s;
    run_s;
    instrs = s.Machine.Cpu.instrs;
    cycles = s.Machine.Cpu.cycles;
    counters = (Session.report sess).Telemetry.r_counters;
    queries_s;
  }

let configs = [ Disabled; Enabled; Enabled_sym; Profile; Samples; Heat; Record ]

type sweep = {
  base : (int * int * float) list;  (** per program: instrs, cycles, median wall *)
  big : int * float;  (** big-loop instrs, wall *)
  cells : (config * cell list) list;  (** per config, per program: median-run cell *)
  obligations : int;
  sites : int;
  eliminated : int;
  tracer : Trace.t;
}

(* Repeat each configuration [reps] times per program, keeping the run
   with the median total wall time. *)
let sweep ~reps (jobs : (program * string) list) =
  let tr = Trace.create ~clock:now () in
  let median_by key xs =
    let a = Array.of_list xs in
    Array.sort (fun x y -> compare (key x) (key y)) a;
    a.(Array.length a / 2)
  in
  let reps_of f = List.init reps (fun _ -> f ()) in
  let base =
    List.map
      (fun ((p : program), _) ->
        Trace.with_span tr ~args:[ ("program", p.name) ] "Cpu.run" (fun () ->
            median_by (fun (_, _, w) -> w) (reps_of (fun () -> base_run p.source))))
      jobs
  in
  let big =
    let i, _, w = Trace.with_span tr "Cpu.run" (fun () -> base_run big_loop) in
    (i, w)
  in
  let cells =
    List.map
      (fun cfg ->
        ( cfg,
          List.map
            (fun (p, g) ->
              median_by
                (fun c -> c.create_s +. c.run_s)
                (reps_of (fun () -> session_cell tr cfg p g)))
            jobs ))
      configs
  in
  let obligations, sites, eliminated =
    List.fold_left
      (fun (o, s, e) ((p : program), _) ->
        let sess =
          Trace.with_span tr "Session.create" (fun () ->
              Session.create ~options ~trace:tr p.source)
        in
        let v =
          Trace.with_span tr "Verify.run" (fun () ->
              Verify.run ~audit:(Audit.report sess.Session.audit) sess.Session.plan)
        in
        if not (Verify.ok v) then failwith (p.name ^ ": " ^ Verify.summary_line v);
        let plan_sites = sess.Session.plan.Instrument.sites in
        let elim =
          List.length
            (List.filter (fun (x : Instrument.site) -> x.status <> Instrument.Checked) plan_sites)
        in
        (o + List.length v.Verify.v_obligations, s + List.length plan_sites, e + elim))
      (0, 0, 0) jobs
  in
  { base; big; cells; obligations; sites; eliminated; tracer = tr }

(* --- per-layer metrics ----------------------------------------------------- *)

let pct_geomean ratios = 100.0 *. (Stats.geomean ratios -. 1.0)

let counter name (c : cell) =
  float_of_int (Option.value ~default:0 (List.assoc_opt name c.counters))

(* Recorded wire frames, timed through the codec: microseconds per frame. *)
let codec_us () =
  let cmds = !Wire.recorded_commands and reps = !Wire.recorded_replies in
  let decoded_cmds = List.filter_map (fun l -> Result.to_option (Proto.decode_command l)) cmds in
  let decoded_reps = List.filter_map (fun l -> Result.to_option (Proto.decode_reply l)) reps in
  let frames = List.length cmds + List.length reps in
  let per_frame f =
    let n = ref 0 in
    let t0 = now () in
    while now () -. t0 < 0.2 do
      f ();
      incr n
    done;
    (now () -. t0) /. float_of_int (!n * max 1 frames) *. 1e6
  in
  let encode () =
    List.iter (fun c -> ignore (Proto.encode_command c)) decoded_cmds;
    List.iter (fun r -> ignore (Proto.encode_reply r)) decoded_reps
  in
  let decode () =
    List.iter (fun l -> ignore (Proto.decode_command l)) cmds;
    List.iter (fun l -> ignore (Proto.decode_reply l)) reps
  in
  (per_frame encode, per_frame decode)

let verb_p50 (cmds : Meter.cmd list) verb =
  Meter.ms
    (Stats.percentile
       (List.filter_map (fun (c : Meter.cmd) -> if c.verb = verb then Some c.dur else None) cmds)
       50.0)

(* The per-layer metrics, in BENCHMARK.json's order.  [loop] is the
   untraced half of the run and [traced] the traced half; [wire] holds
   every wire command the run sent. *)
let metrics ~(sw : sweep) ~(loop : Meter.t) ~(traced : Meter.t) ~gc_minor_words
    ~gc_major ~(wire : Meter.cmd list) =
  let spans = table [ sw.tracer ] in
  let creates =
    float_of_int
      (match List.find_opt (fun r -> r.name = "Session.create") spans with
      | Some r -> r.count
      | None -> 1)
  in
  let row name = List.find_opt (fun r -> r.name = name) spans in
  (* Milliseconds per session opened: every open runs each stage once. *)
  let span_ms ?(self = false) name =
    match row name with
    | Some r -> Meter.ms (if self then r.self else r.busy) /. creates
    | None -> 0.0
  in
  let per_call_ms name =
    match row name with Some r -> Meter.ms r.busy /. float_of_int r.count | None -> 0.0
  in
  let cells cfg = List.assoc cfg sw.cells in
  let enabled = cells Enabled and disabled = cells Disabled in
  let ratio f a b = List.map2 (fun x y -> f x /. f y) a b in
  let total c = c.create_s +. c.run_s in
  let base_wall = List.map (fun (_, _, w) -> w) sw.base in
  let base_instrs = List.fold_left (fun a (i, _, _) -> a + i) (fst sw.big) sw.base in
  let sum f l = Stats.sum (List.map f l) in
  let observer cfg = pct_geomean (ratio total (cells cfg) (cells Enabled_sym)) in
  let record = cells Record in
  let query name =
    Stats.mean (List.map (fun c -> Meter.ms (List.assoc name c.queries_s)) record)
  in
  let encode_us, decode_us = codec_us () in
  let hello = verb_p50 wire "hello" and arm = verb_p50 wire "arm" in
  [
    ("minic.compile_ms", span_ms "compile", "ms");
    ("instrument.lift_ms", span_ms "lift", "ms");
    ("instrument.symopt_ms", span_ms "symopt", "ms");
    ("instrument.loopopt_ms", span_ms "loopopt", "ms");
    ("instrument.plan_ms", span_ms "plan", "ms");
    ("instrument.emit_ms", span_ms "instrument", "ms");
    ("session.load_ms", span_ms ~self:true "Session.create", "ms");
    ("verify.run_ms", per_call_ms "Verify.run", "ms");
    ("verify.obligations", float_of_int sw.obligations, "count");
    ("instrument.eliminated_frac", float_of_int sw.eliminated /. float_of_int sw.sites, "fraction");
    ( "cpu.base_mips",
      float_of_int base_instrs /. (Stats.sum base_wall +. snd sw.big) /. 1e6,
      "MIPS" );
    ( "cpu.session_mips",
      sum (fun c -> float_of_int c.instrs) enabled /. sum (fun c -> c.run_s) enabled /. 1e6,
      "MIPS" );
    ("cpu.run_share", sum (fun c -> c.run_s) enabled /. sum total enabled, "fraction");
    ( "checks.overhead_pct",
      pct_geomean
        (List.map2
           (fun c (_, cyc, _) -> float_of_int c.cycles /. float_of_int cyc)
           enabled sw.base),
      "%" );
    ( "checks.disabled_cost_pct",
      pct_geomean (List.map2 (fun c w -> c.run_s /. w) disabled base_wall),
      "%" );
    ("checks.enabled_cost_pct", pct_geomean (ratio (fun c -> c.run_s) enabled disabled), "%");
    ("mrs.check_execs", sum (counter "check_execs") enabled, "count");
    ("mrs.user_hits", sum (counter "user_hits") enabled, "count");
    ("profile.cost_pct", observer Profile, "%");
    ("timeseries.cost_pct", observer Samples, "%");
    ("heatmap.cost_pct", observer Heat, "%");
    ("replay.record_cost_pct", observer Record, "%");
    ("replay.last_write_ms", query "Session.last_write", "ms");
    ("replay.history_ms", query "Session.write_history", "ms");
    ("replay.travel_ms", query "Session.time_travel", "ms");
    ("replay.replayed_instrs", sum (counter "replayed_instrs") record, "count");
    ("replay.checkpoint_bytes", sum (counter "checkpoint_bytes") record, "bytes");
    ("proto.encode_us", encode_us, "us");
    ("proto.decode_us", decode_us, "us");
    ("daemon.hello_rtt_ms", hello, "ms");
    ("daemon.open_ms", verb_p50 wire "open", "ms");
    ("daemon.arm_ms", arm, "ms");
    ("daemon.run_ms", verb_p50 wire "run", "ms");
    ("daemon.query_ms", verb_p50 wire "query", "ms");
    ("daemon.travel_ms", verb_p50 wire "travel", "ms");
    ("daemon.verify_ms", verb_p50 wire "verify", "ms");
    ("daemon.close_ms", verb_p50 wire "close", "ms");
    ("daemon.shard_wait_ms", arm -. hello, "ms");
    ( "daemon.reply_bytes_per_cmd",
      float_of_int !Wire.bytes_in /. float_of_int (max 1 !Wire.frames_out),
      "bytes" );
    ("gen.late_p99_ms", Meter.ms (Stats.percentile loop.Meter.late 99.0), "ms");
    ("gen.backlog_max", float_of_int loop.Meter.backlog_max, "count");
    ( "gc.minor_mw_per_session",
      gc_minor_words /. 1e6 /. float_of_int (Meter.attempted loop),
      "Mwords" );
    ("gc.major_collections", float_of_int gc_major, "count");
    ( "trace.overhead_pct",
      100.0 *. ((Meter.sessions_per_s loop /. Meter.sessions_per_s traced) -. 1.0),
      "%" );
  ]
