(** End-to-end sessions: compile → instrument → assemble → load →
    install the MRS, with per-site execution counters (zero-cost
    probes) and an optional store oracle. *)

type t = {
  plan : Instrument.t;
  image : Sparc.Assembler.image;
  sites : Instrument.map;
      (** where every site, patch stub and function sits in [image] —
          counters, the oracle, hit attribution, store write types
          ({!Instrument.store_type}) and {!Debugger.function_of_pc} all
          read it *)
  symtab : Sparc.Symtab.t;  (** resolved against the instrumented image *)
  cpu : Machine.Cpu.t;
  mrs : Mrs.t;
  telemetry : Telemetry.t;
  audit : Audit.t;  (** provenance journal threaded through the pipeline *)
  trace : Trace.t;  (** phase-span tracer (compile → … → run) *)
  replay : Replay.t option;
      (** time-travel engine, present iff [checkpoint_every] was given *)
  mutable expected_hits : int;
      (** the oracle's count of program accesses that landed in a user
          region — see {!install_oracle} *)
  profiler : Profile.t option;
      (** hot-path profiler, present iff [profile] was given *)
  timeseries : Timeseries.t option;
      (** time-series sampler, present iff [sample_every] was given *)
  heatmap : Heatmap.t option;
      (** address-space heatmap, present iff [heatmap] was given *)
  on_sample : (int -> unit) ref;
      (** extra per-sample callback — see {!set_on_sample} *)
  mutable at_halt : (int * int) option;
      (** instructions and cycles at the halt, when {!report} last read
          the machine's gauges *)
}

val create :
  ?options:Instrument.options ->
  ?protect_mrs:bool ->
  ?telemetry:Telemetry.t ->
  ?audit:Audit.t ->
  ?trace:Trace.t ->
  ?checkpoint_every:int ->
  ?checkpoint_budget:int ->
  ?profile:bool ->
  ?profile_clock:(unit -> float) ->
  ?sample_every:int ->
  ?sample_clock:(unit -> float) ->
  ?heatmap:bool ->
  string ->
  t
(** Build a session from mini-C source.  [protect_mrs] arms the MRS's
    self-protection regions (§2.1).  [telemetry] supplies the registry
    backing the per-site counters (default: a fresh enabled one); its
    site arrays are (re)allocated to this plan's shape, a ["strategy"]
    tag is attached, and the session's probes/MRS bump it from then on.

    [audit] and [trace] (defaults: fresh instances gated on the
    registry's enabled flag) receive the pipeline's provenance record
    and phase spans: the journal gets one verdict per write site from
    {!Instrument.run}, patch/region lifecycle events from the MRS, and
    a mirrored ["strategy"] tag; the tracer brackets ["compile"], the
    instrumenter's stages and ["run"].  Probes at the patch-stub labels
    count patched-check executions into the registry's [site_patched]
    cells — the conservation quantity [--audit] reconciles against the
    journal.

    [checkpoint_every] arms time travel: {!run} records the execution
    through a {!Replay.t} that checkpoints (copy-on-write) every N
    executed instructions, enabling {!last_write}/{!write_history}/
    {!time_travel} afterwards.  Its checkpoint counters and lifecycle
    events land in the session's registry and audit journal, gated by
    the registry's enabled flag like everything else.
    [checkpoint_budget] bounds the journal's retained bytes
    (exponential-thinning eviction).

    [profile] (default false) attaches the hot-path profiler: basic
    blocks are discovered from the instrumented text, the interpreter
    bumps the per-instruction exec/taken arrays inline, and call/return
    transfers maintain the shadow call stack — read the result with
    {!profile_report} (or the [profiler] field for folded/Perfetto
    exports).  [profile_clock] timestamps its Perfetto
    counter samples (pass [Unix.gettimeofday]; default: a constant).

    [sample_every] arms the time-series sampler: every N executed
    instructions the dispatch-loop hook snapshots the registry's vital
    signs (check executions, MRS hits, segment-cache misses, checkpoint
    bytes, replayed instructions) into the registry's sample ring —
    read them from {!report}'s [r_samples] or via {!Timeseries}'s
    exports.  [sample_clock] timestamps the sampler's Perfetto counter
    tracks only (default: a constant; samples themselves never carry
    wall-clock time).

    [heatmap] (default false) attaches the address-space heatmap: a
    store hook paints per-page write/check density and an MRS observer
    paints hit density — render with the [heatmap] field's
    {!Heatmap.to_text}/[to_json_string]/[to_ppm] after calling
    {!heatmap_sync_regions}.

    Replay counts nothing ({!Replay.advance}): a report taken after any
    mix of queries equals the one taken at exit, apart from the replay
    engine's own restore, replayed-instruction and checkpoint counters,
    and no replayed hit reaches the callback or an observer.
    @raise Failure if the instrumented program fails to assemble.
    @raise Minic.Compile.Error on compilation errors. *)

val run : ?fuel:int -> t -> int * string
(** Execute to completion; returns (exit code, captured output).  With
    [checkpoint_every] set, execution is recorded through
    {!Replay.record_slice} (same result, plus a checkpoint journal).
    @raise Machine.Cpu.Out_of_fuel after [fuel] instructions (default
    2·10{^8}); a later {!run} or {!run_slice} resumes the program. *)

val run_slice : ?fuel:int -> t -> [ `Exited of int * string | `Running of int ]
(** Fuel-bounded resumable execution — the service daemon's fairness
    quantum.  [`Running n] means [n] instructions were executed and the
    program has not halted (call again to resume; armed watchpoints
    keep firing across slices).  [`Exited (code, output)] is terminal
    and idempotent.  With [checkpoint_every] set, slices record through
    {!Replay.record_slice}, whose checkpoint placement is identical to
    a one-shot {!run} — slicing never changes a replay's answers or the
    telemetry.  Replays are sliced the same way: see {!cursor}. *)

(** {1 Time travel}

    All of these raise [Invalid_argument] on a session created without
    [checkpoint_every], and {!Replay.Determinism_violation} if a replay
    diverges from the recorded run. *)

val replay : t -> Replay.t option

type write_record = {
  wr_hit : Replay.hit;
  wr_write_type : Write_type.t option;
      (** [None] when the pc matches no known write site (runtime or
          monitor-library stores) *)
}

val cursor : ?guard:bool -> t -> 'a Replay.goal -> 'a Replay.cursor
(** A replay cursor over the session's journal ({!Replay.cursor});
    drive it with {!Replay.advance}. *)

val last_write : ?guard:bool -> t -> addr:int -> write_record option
(** The final store of the recorded run to the word containing [addr]
    ({!Replay.Last_write}), with its write type. *)

val write_history :
  ?guard:bool -> t -> lo:int -> hi:int -> write_record list
(** Every recorded store landing in [[lo, hi)], in execution order
    ({!Replay.History}). *)

val time_travel : ?guard:bool -> t -> insn:int -> int
(** Move the machine to its state just after instruction [insn]
    ({!Replay.Travel}); returns the re-executed instruction count. *)

val resolve_addr : t -> string -> int option
(** Resolve a CLI target — [0x]-hex or decimal numeral, or a global
    variable name — to a data address. *)

val site_executions : t -> int -> int
(** Dynamic executions of one write site (by origin).  Totals over
    all sites are {!Telemetry.current} of [Check_execs],
    [Sym_eliminated_execs] and [Loop_eliminated_execs] on [telemetry]. *)

val install_oracle : t -> unit
(** Count every program store (and, with read monitoring, every
    program load) that lands in a user region; after the run,
    {!missed_hits} is the number of such accesses that produced no
    notification.  Zero for a correctly armed debugger — the soundness
    property the test suite checks for every strategy.  Notifications
    are counted by the session's registry ({!Telemetry.User_hits});
    neither side counts a replayed access. *)

val missed_hits : t -> int

val stats : t -> Machine.Cpu.stats

val report : t -> Telemetry.report
(** Freeze the session's registry into a report, first folding in the
    snapshot gauges (segment-arena occupancy), the interpreter's
    probe/hook/trap dispatch counts, the store-execution total and —
    when profiling — the profiler's instruction/transfer totals.  Once
    the program has halted, the gauges read off the machine are those of
    the halt, not of a machine a query has since moved.  With
    a sampler armed, the sample ring is finalized first: its last entry
    equals the end-of-run counter values (idempotent across repeated
    reports). *)

val set_on_sample : t -> (int -> unit) -> unit
(** Register an extra callback fired on every time-series sample with
    the live instruction count — the scrape server's poll point.
    No-op unless the session was created with [sample_every]. *)

val heatmap_sync_regions : t -> unit
(** Paint the MRS's current [User] regions into the heatmap's
    monitored-page marks (so renders can flag monitored pages that
    never fired).  Call before rendering; no-op without [heatmap]. *)

val profile_report : t -> Profile.report
(** Freeze the profiler at the machine's instruction/cycle totals (those
    of the halt once it has halted, like {!report}), joining per-block
    MRS check density from the telemetry per-site exec arrays.
    @raise Invalid_argument on a session created without [profile]. *)
