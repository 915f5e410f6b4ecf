open Sparc
open Machine

(* End-to-end orchestration: compile mini-C, instrument, assemble,
   load, install the MRS, and run — with per-site execution counters
   (zero-cost probes) and an optional store oracle for validation. *)

type t = {
  plan : Instrument.t;
  image : Assembler.image;
  sites : Instrument.map;
  symtab : Symtab.t;
  cpu : Cpu.t;
  mrs : Mrs.t;
  telemetry : Telemetry.t;
  audit : Audit.t;
  trace : Trace.t;
  replay : Replay.t option;
      (* present iff [checkpoint_every] was given: the time-travel
         engine that [run] records through *)
  mutable expected_hits : int;  (* oracle: covered program accesses *)
  profiler : Profile.t option;  (* present iff [~profile:true] *)
  timeseries : Timeseries.t option;  (* present iff [?sample_every] *)
  heatmap : Heatmap.t option;  (* present iff [~heatmap:true] *)
  on_sample : (int -> unit) ref;
      (* extra per-sample callback (scrape-server polling) *)
  mutable at_halt : (int * int) option;
      (* instructions and cycles at the halt, when the machine's gauges
         were last read: a replay query moves the machine afterwards *)
}

(* A store or load hook that watches execution sees the live run only,
   like every observer: a replayed leg runs with [observing] false. *)
let observed hook cpu ~addr ~width = if Cpu.observing cpu then hook cpu ~addr ~width

let site_kind_of_status = function
  | Instrument.Checked -> Telemetry.site_kind_checked
  | Instrument.Sym_eliminated _ -> Telemetry.site_kind_sym
  | Instrument.Loop_eliminated _ -> Telemetry.site_kind_loop

let create ?(options = Instrument.default_options) ?(protect_mrs = false)
    ?telemetry ?audit ?trace ?checkpoint_every ?checkpoint_budget
    ?(profile = false) ?profile_clock ?sample_every ?sample_clock
    ?(heatmap = false) source =
  let telemetry =
    match telemetry with Some tel -> tel | None -> Telemetry.create ()
  in
  (* The provenance journal and phase tracer default to fresh instances
     gated on the registry's flag, so a registry-off session emits
     nothing anywhere. *)
  let audit =
    match audit with
    | Some a -> a
    | None -> Audit.create ~enabled:(fun () -> Telemetry.enabled telemetry) ()
  in
  let trace =
    match trace with
    | Some tr -> tr
    | None -> Trace.create ~enabled:(fun () -> Telemetry.enabled telemetry) ()
  in
  let out = Trace.with_span trace "compile" (fun () -> Minic.Compile.compile source) in
  let plan = Instrument.run ~audit ~trace options out in
  let image =
    try Assembler.assemble plan.Instrument.program
    with Assembler.Error m ->
      failwith ("Session.create: assembly of instrumented program failed: " ^ m)
  in
  let symtab =
    Symtab.resolve_data_labels
      ~addr_of_label:(Assembler.addr_of_label image)
      out.Minic.Codegen.symtab
  in
  let cpu = Cpu.create image in
  Cpu.install_basic_services cpu;
  Telemetry.set_tag telemetry "strategy" (Strategy.tag options.Instrument.strategy);
  Audit.set_tag audit "strategy" (Strategy.tag options.Instrument.strategy);
  (* Size the per-site arrays off the plan: slot [i] is the i-th site in
     program order — the counters below are the only writers of the exec
     cells, so the fast path is one array increment. *)
  Telemetry.alloc_sites telemetry
    (Array.of_list
       (List.map
          (fun (s : Instrument.site) ->
            (Write_type.index s.write_type, site_kind_of_status s.status))
          plan.Instrument.sites));
  Telemetry.alloc_read_sites telemetry
    (Array.of_list
       (List.map
          (fun (r : Instrument.read_site) -> Write_type.index r.r_write_type)
          plan.Instrument.read_sites));
  let sites = Instrument.map plan image in
  let mrs =
    Mrs.install ~protect_self:protect_mrs ~telemetry ~audit ~plan ~sites ~image
      ~symtab cpu
  in
  Array.iter
    (fun (p : Instrument.placed) ->
      let slot = p.site.slot in
      if p.pc >= 0 then
        Cpu.add_counter cpu p.pc (fun () -> Telemetry.bump_site telemetry slot);
      (* Conservation accounting: an eliminated site's check, once
         patched back in, executes in its patch stub — a counter at the
         stub counts exactly the patched-check executions, so
         [site_patched <= site_exec] always, with equality while the
         patch is armed and zero while the variable is unmonitored. *)
      if p.stub >= 0 then
        Cpu.add_counter cpu p.stub (fun () ->
            Telemetry.bump_site_patched telemetry slot))
    (Instrument.write_sites sites);
  Array.iter
    (fun (pc, (r : Instrument.read_site)) ->
      let slot = r.r_slot in
      Cpu.add_counter cpu pc (fun () -> Telemetry.bump_read_site telemetry slot))
    (Instrument.read_sites sites);
  (* Segment-cache miss accounting: count entries to the per-write-type
     miss handlers (and their read variants) so Figure 3 and the
     telemetry reports draw from one counter.  Counters cost no
     simulated cycles, so every table number is unchanged. *)
  if Strategy.uses_segment_caches options.Instrument.strategy then
    List.iter
      (fun wt ->
        let idx = Write_type.index wt in
        List.iter
          (fun label ->
            match Assembler.addr_of_label image label with
            | Some addr ->
              Cpu.add_counter cpu addr (fun () ->
                  Telemetry.incr_typed telemetry Telemetry.Cache_misses_by_type
                    idx)
            | None -> ())
          [
            Checkgen.cache_miss_routine wt;
            Checkgen.cache_miss_routine wt ^ "_rd";
          ])
      Write_type.all;
  (* Time travel: when an interval is given, attach the replay engine —
     its checkpoint/restore emissions flow into the same registry and
     provenance journal, gated exactly like the rest of telemetry. *)
  let replay =
    match checkpoint_every with
    | None -> None
    | Some interval ->
      Some
        (Replay.create ~telemetry ~audit ?budget_bytes:checkpoint_budget
           ~checkpoint_every:interval cpu)
  in
  (* Hot-path profiler: block discovery over the instrumented text's
     static classification, counter arrays the interpreter bumps (one
     increment per executed instruction when on, one boolean test per
     block when off), and call/return transfers feeding the shadow
     stack.  The function
     table is the compiler's function list plus every named call target
     in the image (runtime and check-stub routines), so monitoring
     overhead shows up attributed in the flamegraph. *)
  let profiler =
    if not profile then None
    else begin
      let seen = Hashtbl.create 32 in
      let add acc addr name =
        if addr >= 0 && not (Hashtbl.mem seen addr) then begin
          Hashtbl.add seen addr ();
          (addr, name) :: acc
        end
        else acc
      in
      let acc =
        List.fold_left
          (fun acc (a, f) -> add acc a f)
          [] (Instrument.functions sites)
      in
      let acc =
        Array.fold_left
          (fun acc insn ->
            match insn with
            | Insn.Call { target = Insn.Abs a } ->
              let name =
                match Assembler.label_of_addr image a with
                | Some l -> l
                | None -> Printf.sprintf "0x%x" a
              in
              add acc a name
            | _ -> acc)
          acc image.Assembler.text
      in
      let p =
        Profile.create ?clock:profile_clock
          ~text_base:image.Assembler.text_base ~info:(Cpu.profile_static cpu)
          ~functions:acc ~entry:image.Assembler.entry ()
      in
      Cpu.profile_install cpu p;
      Some p
    end
  in
  (* Address-space heatmap: the store bodies count per-page write
     density (plus check density where the store is a program store
     site, decided here once per text slot) and an MRS hit observer
     paints hit density. *)
  let heatmap =
    if not heatmap then None
    else begin
      let hm = Heatmap.create ~page_bits:Memory.page_bits () in
      Cpu.heat_install cpu hm ~check_site:(fun pc ->
          Option.is_some (Instrument.store_type sites pc));
      Mrs.add_hit_observer mrs (fun (h : Mrs.hit) ->
          Heatmap.record_hit hm h.Mrs.addr);
      Some hm
    end
  in
  (* Time-series sampler: the dispatch-loop hook snapshots the live
     registry counters every [sample_every] executed instructions.  The
     metric set is the run's vital signs: check executions, MRS hits,
     segment-cache misses, checkpoint bytes and replayed instructions. *)
  let on_sample = ref (fun (_ : int) -> ()) in
  let timeseries =
    match sample_every with
    | None -> None
    | Some every ->
      let metrics =
        [
          { Timeseries.m_name = "check_execs";
            m_read = (fun () -> Telemetry.current telemetry Telemetry.Check_execs) };
          { Timeseries.m_name = "user_hits";
            m_read = (fun () -> Telemetry.current telemetry Telemetry.User_hits) };
          { Timeseries.m_name = "cache_misses";
            m_read =
              (fun () ->
                Telemetry.typed_total telemetry Telemetry.Cache_misses_by_type) };
          { Timeseries.m_name = "checkpoint_bytes";
            m_read =
              (fun () -> Telemetry.current telemetry Telemetry.Checkpoint_bytes) };
          { Timeseries.m_name = "replayed_instrs";
            m_read =
              (fun () -> Telemetry.current telemetry Telemetry.Replayed_instrs) };
        ]
      in
      let ts =
        Timeseries.create ?clock:sample_clock ~every ~registry:telemetry
          ~metrics ()
      in
      Cpu.sample_install cpu ~every ~hook:(fun insn ->
          Timeseries.sample ts ~insn;
          !on_sample insn);
      Some ts
  in
  {
    plan;
    image;
    sites;
    symtab;
    cpu;
    mrs;
    telemetry;
    audit;
    trace;
    replay;
    expected_hits = 0;
    profiler;
    timeseries;
    heatmap;
    on_sample;
    at_halt = None;
  }

let site_executions t origin =
  match Instrument.find_site t.sites origin with
  | Some p -> Telemetry.site_exec t.telemetry p.site.slot
  | None -> 0

(* The oracle: record every program store that lands in a user region;
   at the end of the run, every one of them must have produced a
   notification (assuming the debugger armed the regions through the
   proper interface).  Patched-out stores execute inside their patch
   stub, so stub addresses count as program stores too. *)
let install_oracle t =
  let rec covered ~lo ~hi =
    lo <= hi
    &&
    match Region.find_in (Cpu.mem t.cpu) ~lo ~hi with
    | Some { Region.kind = Region.User; _ } -> true
    | Some r -> covered ~lo:(r.Region.hi + 1) ~hi
    | None -> false
  in
  let count ~addr ~width =
    let lo = Word.to_unsigned addr in
    if covered ~lo ~hi:(lo + Insn.width_bytes width - 1) then
      t.expected_hits <- t.expected_hits + 1
  in
  Cpu.set_store_hook t.cpu
    (observed (fun cpu ~addr ~width ->
         if Option.is_some (Instrument.store_type t.sites (Cpu.pc cpu)) then
           count ~addr ~width));
  if t.plan.Instrument.options.monitor_reads then
    Cpu.set_load_hook t.cpu
      (observed (fun cpu ~addr ~width ->
           if Instrument.load_site t.sites (Cpu.pc cpu) then count ~addr ~width))

(* The gauges a report reads off the machine: current values, not bump
   streams.  Read for the last time at the halt, since a replay query
   moves the machine after that. *)
let record_gauges t =
  if Option.is_none t.at_halt then begin
    Mrs.record_gauges t.mrs;
    let set = Telemetry.set t.telemetry in
    set Telemetry.Probe_dispatches (Cpu.probe_dispatches t.cpu);
    set Telemetry.Store_hook_dispatches (Cpu.store_hook_dispatches t.cpu);
    set Telemetry.Load_hook_dispatches (Cpu.load_hook_dispatches t.cpu);
    set Telemetry.Trap_dispatches (Cpu.trap_count t.cpu);
    set Telemetry.Store_execs (Cpu.stats t.cpu).Cpu.stores;
    if Option.is_some (Cpu.halted t.cpu) then
      t.at_halt <- Some (Cpu.instr_count t.cpu, Cpu.cycle_count t.cpu)
  end

let instrs_and_cycles t =
  Option.value t.at_halt ~default:(Cpu.instr_count t.cpu, Cpu.cycle_count t.cpu)

let run ?fuel t =
  let code =
    Trace.with_span t.trace "run" (fun () ->
        match t.replay with
        | None -> Cpu.run ?fuel t.cpu
        | Some r -> (
          match Replay.record_slice ?fuel r with
          | `Exited code -> code
          | `Out_of_fuel executed -> raise (Cpu.Out_of_fuel { executed })))
  in
  record_gauges t;
  (code, Cpu.output t.cpu)

(* Fuel-bounded, resumable execution — the service daemon's `run` verb.
   Each slice advances by at most [fuel] instructions so a scheduler
   can round-robin many sessions on one domain without letting any of
   them starve the loop.  With a checkpoint journal armed the slices go
   through {!Replay.record_slice}, which places checkpoints exactly
   where a one-shot run would — so slicing is invisible to every replay
   {!cursor} (sliced the same way by {!Replay.advance}) and to
   telemetry.  No ["run"] span is recorded per slice (span multisets
   would then depend on the slice quantum); the daemon brackets its own
   spans. *)
let run_slice ?fuel t =
  match Cpu.halted t.cpu with
  | Some code -> `Exited (code, Cpu.output t.cpu)
  | None -> (
    match t.replay with
    | None -> (
      match Cpu.run ?fuel t.cpu with
      | code ->
        record_gauges t;
        `Exited (code, Cpu.output t.cpu)
      | exception Cpu.Out_of_fuel { executed } -> `Running executed)
    | Some r -> (
      match Replay.record_slice ?fuel r with
      | `Exited code ->
        record_gauges t;
        `Exited (code, Cpu.output t.cpu)
      | `Out_of_fuel executed -> `Running executed))

(* --- time travel ------------------------------------------------------ *)

let replay t = t.replay

let require_replay t fn =
  match t.replay with
  | Some r -> r
  | None ->
    invalid_arg
      (fn ^ ": session was created without ?checkpoint_every — no journal")

type write_record = {
  wr_hit : Replay.hit;
  wr_write_type : Write_type.t option;
      (* [None] when the pc matches no known site (runtime/monitor
         stores) *)
}

let enrich t (h : Replay.hit) =
  { wr_hit = h; wr_write_type = Instrument.store_type t.sites h.Replay.h_pc }

let cursor ?guard t goal =
  Replay.cursor ?guard (require_replay t "Session.cursor") goal

let query ?guard t fn goal = Replay.query ?guard (require_replay t fn) goal

let last_write ?guard t ~addr =
  let lo = addr land lnot 3 in
  Option.map (enrich t)
    (query ?guard t "Session.last_write" (Replay.Last_write { lo; hi = lo + 4 }))

let write_history ?guard t ~lo ~hi =
  List.map (enrich t) (query ?guard t "Session.write_history" (Replay.History { lo; hi }))

let time_travel ?guard t ~insn = query ?guard t "Session.time_travel" (Replay.Travel insn)

(* Resolve a CLI watch target to an address: a 0x-hex or decimal
   numeral, or a global variable name from the symbol table. *)
let resolve_addr t target =
  let numeral =
    let is_hex =
      String.length target > 2
      && target.[0] = '0'
      && (target.[1] = 'x' || target.[1] = 'X')
    in
    let is_dec =
      target <> "" && String.for_all (fun c -> c >= '0' && c <= '9') target
    in
    if is_hex || is_dec then int_of_string_opt target else None
  in
  match numeral with
  | Some a -> Some a
  | None -> (
    match Symtab.lookup t.symtab target with
    | Some { Symtab.location = Symtab.Absolute a; _ } -> Some a
    | Some _ | None -> None)

let missed_hits t = t.expected_hits - Telemetry.get t.telemetry Telemetry.User_hits

let stats t = Cpu.stats t.cpu

let report t =
  record_gauges t;
  (match t.profiler with
  | Some p ->
    Telemetry.set t.telemetry Telemetry.Profiled_instrs
      (Profile.profiled_instrs p);
    Telemetry.set t.telemetry Telemetry.Prof_transfers (Profile.transfers p)
  | None -> ());
  (* Close the sample ring: the final sample makes the last ring entry
     equal the end-of-run counter values (idempotent — [sample] ignores
     non-increasing instruction counts, so repeated reports add
     nothing). *)
  (match t.timeseries with
  | Some ts -> Timeseries.finalize ts ~insn:(fst (instrs_and_cycles t))
  | None -> ());
  Telemetry.report t.telemetry

let set_on_sample t f = t.on_sample := f

(* Paint the current MRS region table into the heatmap's monitored marks
   (call before rendering: regions armed then deleted re-paint on the
   next call only if still present — the map answers "which monitored
   pages never fired" for the regions armed now). *)
let heatmap_sync_regions t =
  match t.heatmap with
  | None -> ()
  | Some hm ->
    Region.iter (Cpu.mem t.cpu) (fun r ->
        if r.Region.kind = Region.User then
          Heatmap.mark_monitored hm ~lo:r.Region.lo ~hi:r.Region.hi)

let profile_report t =
  match t.profiler with
  | None ->
    invalid_arg "Session.profile_report: session was created without ~profile"
  | Some p ->
    let site_checks =
      Array.fold_right
        (fun (p : Instrument.placed) acc ->
          if p.pc < 0 then acc
          else (p.pc, Telemetry.site_exec t.telemetry p.site.slot) :: acc)
        (Instrument.write_sites t.sites) []
    in
    let instrs, cycles = instrs_and_cycles t in
    Profile.report p ~site_checks ~instrs ~cycles ()
