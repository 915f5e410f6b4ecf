(** Zero-dependency metrics and tracing registry for the MRS stack.

    A registry is a set of preallocated integer counters — scalar
    counters, write-type-keyed counters (4-wide arrays indexed by the
    BSS/STACK/HEAP/BSS-VAR write-type id), and per-check-site
    execution/hit arrays sized at instrument time — plus a fixed-size
    ring buffer of monitor-hit events.  Every bump is a single array
    increment guarded by the registry's [enabled] flag, mirroring the
    paper's reserved {e disabled} register.  The flag is on except while
    a replay re-executes recorded instructions ({!replaying}), so a
    replayed leg counts nothing here or in anything gated on it.

    Reports ({!report}) are immutable snapshots rendered by {!Export}
    as human text, versioned JSON ({!schema_version}) or
    Prometheus-style metrics.  Reports from independent registries
    (e.g. one per benchmark worker domain) merge deterministically:
    counter addition is commutative, so a merged report does not depend
    on domain scheduling. *)

(** {1 Counters} *)

type counter =
  | Check_execs           (** dynamic write-check site executions *)
  | Read_check_execs      (** dynamic read-check site executions (§5) *)
  | Sym_eliminated_execs  (** executions of symbol-eliminated sites (§4.2) *)
  | Loop_eliminated_execs (** executions of loop-eliminated sites (§4.3) *)
  | User_hits
  | Read_hits             (** subset of [User_hits] raised by read checks *)
  | Internal_hits
  | Unattributed_hits     (** hits whose pc matched no known check site *)
  | Loop_entries          (** derived: sum of the per-loop entry array *)
  | Loop_triggers
  | Patches_inserted
  | Patches_removed
  | Regions_created
  | Regions_deleted
  | Violations
  | Seg_segments_allocated  (** segmented-bitmap segments ever allocated *)
  | Seg_words_monitored     (** occupancy snapshot: monitored words *)
  | Seg_arena_bytes         (** segment-arena bytes in use *)
  | Sites_total             (** static: write sites in the plan *)
  | Sites_checked
  | Sites_sym_eliminated
  | Sites_loop_eliminated
  | Patched_check_execs     (** executions of checks re-inserted by a
                                Kessler patch (PreMonitor) *)
  | Probe_dispatches        (** interpreter probe invocations *)
  | Store_hook_dispatches
  | Load_hook_dispatches
  | Trap_dispatches
  | Checkpoints_taken       (** COW checkpoints captured (v3) *)
  | Checkpoint_pages_copied (** pages physically captured (COW deltas) *)
  | Checkpoint_pages_shared (** pages shared with the previous checkpoint *)
  | Checkpoint_bytes        (** attributed checkpoint bytes at capture *)
  | Checkpoint_evictions    (** journal entries thinned under budget *)
  | Restores                (** checkpoint rollbacks performed *)
  | Replayed_instrs         (** instructions re-executed by travels/queries *)
  | Profiled_instrs         (** instructions seen by the hot-path profiler (v4) *)
  | Prof_transfers          (** profiler call/return transfer events *)
  | Store_execs             (** store instructions executed (v5 gauge, set at
                                report time from the interpreter's stats; the
                                heatmap conservation denominator) *)
  | Samples_taken           (** time-series samples recorded (v5) *)
  | Sessions_open           (** daemon gauge: live debug sessions, set at
                                report time (v6) *)
  | Commands_served         (** daemon: wire commands dispatched (v6) *)
  | Hits_streamed           (** daemon: async hit events streamed (v6) *)

(** Write-type-keyed counters; each holds one slot per write-type id
    0–3 ({!write_type_name}). *)
type typed =
  | Checks_by_type
  | Read_checks_by_type
  | Hits_by_type
  | Read_hits_by_type
  | Cache_misses_by_type  (** segment-cache misses (§3.1) *)

val write_type_name : int -> string
(** @raise Invalid_argument outside [0, n_write_types). *)

(** {1 Hit-trace events} *)

type access = Write | Read

type event = {
  ev_pc : int;
  ev_addr : int;
  ev_region_lo : int;
  ev_region_hi : int;
  ev_region_kind : string;  (** ["user"] or ["internal"] *)
  ev_access : access;
  ev_write_type : string;   (** [""] when unattributed *)
  ev_insn : int;            (** instruction count at the hit *)
}

(** {1 Registries} *)

type t

val create : ?ring_capacity:int -> unit -> t
(** A fresh, enabled registry; [ring_capacity] defaults to [0] (tracing
    off, pushes only counted). *)

val enabled : t -> bool
(** [false] exactly inside {!replaying}. *)

val replaying : t -> (unit -> 'a) -> 'a
(** [replaying t f] runs [f] with every bump, {!record_event} and
    {!record_sample} a no-op, then restores the gate, also on raise.
    {!Replay.advance} wraps each replayed leg in it. *)

val set_tag : t -> string -> string -> unit
(** Attach report metadata (workload, strategy, …); keys are unique and
    reported in sorted order. *)

val incr : t -> counter -> unit
val add : t -> counter -> int -> unit

val set : t -> counter -> int -> unit
(** Unconditional (ignores [enabled]) — for snapshot gauges like
    {!Seg_words_monitored} written once at report time. *)

val get : t -> counter -> int
(** The raw scalar cell; derived components (per-site sums) are folded
    in by {!report}, not here. *)

val current : t -> counter -> int
(** Live value as {!report} would publish it: the scalar cell plus the
    derived per-site components.  This is what the time-series sampler
    snapshots mid-run. *)

val incr_typed : t -> typed -> int -> unit
(** [incr_typed t c wt] bumps write-type [wt]'s slot of [c]. *)

val get_typed : t -> typed -> int array
(** Copy of the raw 4-wide array. *)

val typed_total : t -> typed -> int
(** Live sum over the 4 write-type slots (raw cells only). *)

(** {2 Per-site arrays (sized at instrument time)} *)

val site_kind_checked : int
val site_kind_sym : int
val site_kind_loop : int

val alloc_sites : t -> (int * int) array -> unit
(** [alloc_sites t spec] sizes the write-site arrays: slot [i] has
    [(write_type_id, site_kind)] [spec.(i)].  Resets previous site
    counts. *)

val alloc_read_sites : t -> int array -> unit
(** Same for read sites; the spec holds write-type ids. *)

val n_sites : t -> int

val bump_site : t -> int -> unit
(** One increment on the check fast path; no-op when disabled. *)

val bump_site_hit : t -> int -> unit

val bump_site_patched : t -> int -> unit
(** One increment at a patch-stub entry: counts executions of an
    eliminated site's check after PreMonitor re-inserted it (Kessler
    patch).  Always [<= site_exec] for the same slot. *)

val bump_read_site : t -> int -> unit
val bump_read_site_hit : t -> int -> unit

val alloc_loops : t -> int -> unit
(** [alloc_loops t n] sizes (and zeroes) the per-loop entry array for
    loop ids [0, n); {!Loop_entries} is its sum. *)

val bump_loop_entry : t -> int -> unit
(** One execution of loop [id]'s pre-header check. *)

val site_exec : t -> int -> int
val site_patched : t -> int -> int

val loop_entries : t -> int -> int
(** Pre-header check executions of one loop, by id. *)

(** {2 Tracing} *)

val record_event : t -> event -> unit

(** {2 Time-series samples (v5)}

    A sample is one snapshot of a fixed set of counter values, taken
    every [sample_every] executed instructions by the dispatch-loop
    sampler.  Samples live in their own preallocated ring (capacity 0 =
    sampling off, pushes only counted), and survive {!merge} as a
    sorted concatenation — the canonical multiset order that makes
    cross-domain merges deterministic. *)

type sample = {
  s_insn : int;                   (** instruction count at the snapshot *)
  s_values : (string * int) list; (** metric name → live counter value *)
}

val set_sample_capacity : t -> int -> unit
(** Replace the sample ring with a fresh one of the given capacity. *)

val set_sample_meta : t -> every:int -> metrics:string list -> unit
(** Record the sampling interval and metric-name set published in
    reports ([every = 0] means unset/mixed). *)

val record_sample : t -> sample -> unit
(** Push a sample (and bump {!Samples_taken}); no-op when disabled. *)

(** {1 Reports} *)

val schema_version : string
(** ["dbp-telemetry/6"] — bumped on any layout change (v2 added the
    per-site [patched] field and the [patched_check_execs] counter; v3
    the checkpoint/replay counters [checkpoints_taken],
    [checkpoint_pages_copied]/[_shared], [checkpoint_bytes],
    [checkpoint_evictions], [restores] and [replayed_instrs]; v4 the
    profiler counters [profiled_instrs]/[prof_transfers]; v5 the
    time-series sample ring [samples]/[sample_every]/[sample_metrics]/
    [samples_dropped] and the [store_execs]/[samples_taken] counters;
    v6 the service-daemon gauges [sessions_open]/[commands_served]/
    [hits_streamed]). *)

type site_report = {
  sr_site : int;
  sr_write_type : string;
  sr_kind : string;  (** ["checked"] / ["sym"] / ["loop"] / ["read"] *)
  sr_exec : int;
  sr_hits : int;
  sr_patched : int;  (** executions while a patch re-inserted the check *)
}

type report = {
  r_schema : string;
  r_tags : (string * string) list;            (** sorted by key *)
  r_counters : (string * int) list;           (** canonical order *)
  r_typed : (string * (string * int) list) list;
  r_sites : site_report list;
  r_read_sites : site_report list;
  r_events : event list;
  r_events_dropped : int;
  r_sample_every : int;           (** 0 when sampling was off or mixed *)
  r_sample_metrics : string list; (** metric-name order within samples *)
  r_samples : sample list;
  r_samples_dropped : int;
}

val report : t -> report
(** Snapshot: scalar cells plus the derived per-site sums (total and
    eliminated check executions, hits by write type, static site
    counts). *)

val merge : report list -> report
(** Deterministic aggregate: counters and typed counters sum pointwise
    (by name, first-seen order — canonical when every input is
    canonical); tags keep only the key/value pairs common to all
    inputs; per-site detail and events are dropped (their totals
    survive in the counters); [r_events_dropped] adds every input's
    retained and dropped events.  Samples are concatenated then sorted
    by [(s_insn, s_values)] (the canonical multiset order), metric
    names merge in first-seen order, [r_sample_every] is kept only when
    every sampling input agrees, and drop counts sum.  [merge []] is an
    empty report. *)

val absorb : t -> report -> unit
(** Fold a report's counters into this registry's scalar cells (the
    per-domain sink used by the benchmark pool), push its retained
    samples into this registry's sample ring, and accumulate its sample
    drop count.  Unknown counter names are ignored.  Ignores
    [enabled]. *)
