(** The SPARC-subset interpreter with cycle accounting.

    Cycle model: every instruction costs one base cycle; loads/stores
    add [load_cycles]/[store_cycles] plus [miss_penalty] per cache miss
    (instruction fetch also goes through the combined cache);
    multiplies, divides, traps and register-window spills add their
    configured costs.  Overheads reported by the benchmark harness are
    ratios of these cycle counts, standing in for the paper's wall-clock
    ratios. *)

type config = {
  cache_size : int;
  line_bytes : int;
  load_cycles : int;    (** extra cycles for a load over the base cycle *)
  store_cycles : int;
  miss_penalty : int;
  mul_cycles : int;
  div_cycles : int;
  trap_cycles : int;    (** cost of entering a [ta] trap *)
  spill_cycles : int;   (** register-window overflow/underflow cost *)
  nwindows : int;
}

exception Fault of { pc : int; reason : string }
(** Irrecoverable machine fault: bad pc, misalignment, unresolved label,
    unhandled trap, division by zero, window underflow. *)

exception Out_of_fuel of { executed : int }

type t

val create : ?config:config -> Sparc.Assembler.image -> t
(** Load an image: initialized data written to memory, [pc] at the
    entry point, [%sp] at the stack top, heap break past static data. *)

val get : t -> Sparc.Reg.t -> int
val set : t -> Sparc.Reg.t -> int -> unit

val step : t -> unit
(** Execute one instruction — the one single-instruction path: probed
    slots, traps and {!run_to}'s fall-backs all go through it, observed
    or not, and it is the reference the block runner is tested against.
    Instructions are pre-decoded into specialized closures at load
    time (and on {!patch}/{!rollback}), so a step with no probe
    registered at the pc is one direct-indexed table read plus one
    indirect call; a probed slot runs its counters and probes, then the
    generic interpreter.  While observed, the profiler and sampler then
    account for the executed instruction; one that raises is counted in
    {!instr_count} but not observed. *)

val run_to : t -> insn:int -> unit
(** Run until the program halts or {!instr_count} reaches [insn] — the
    interpreter's only run loop, shared by {!run} and by recording and
    replay, which stop it at checkpoint boundaries.  Returns at once if
    the count is already at or past [insn].

    Straight-line text runs as blocks: a block runs up to and including
    the first branch, call or jmpl and stops before any trap or probed
    slot, so the loop's tests are paid once per block.  A block runs
    only when it ends at or before [insn] and, while the sampler
    observes, at or before the instruction the sampler fires on;
    otherwise the loop falls back to {!step}, so a stop and a sample
    land on the exact instruction.  Inside a block a fetch from the
    line of the previous instruction, which made no data access, skips
    the tag probe: in the direct-mapped cache it cannot miss.  Observed
    runs execute in blocks too: a profiled block bumps each slot's exec
    count as the slot completes and only its last slot pays the branch
    test or the call/return transfer, and the sampler's countdown drops
    by the block's length.  {!stats}, profiles and samples are those of
    stepping, also when an instruction raises inside a block. *)

val run : ?fuel:int -> t -> int
(** Run until the program halts (trap 0); returns the exit code.
    @raise Out_of_fuel after [fuel] instructions (default 2·10{^8}). *)

val halt : t -> int -> unit

val on_trap : t -> int -> (t -> unit) -> unit
(** Install a trap handler; the handler runs after [pc] has advanced
    past the [ta] instruction. *)

val install_basic_services : t -> unit
(** Traps 0-3: exit, print-int, print-char, sbrk. *)

val add_probe : t -> int -> (t -> unit) -> unit
(** Run a zero-cost control probe just before each execution of the
    instruction at [addr] (the debugger's control breakpoints).  A probe
    may move the pc, patch text or halt the machine.  Probes at the same
    address fire in registration order, after the slot's counters; the
    instruction then runs on the generic interpreter, and {!run_to}'s
    blocks stop before the slot.  Probes live in a direct-indexed table
    parallel to the text segment, so the per-instruction cost when no
    probe is registered is a single array read.
    @raise Fault if [addr] is outside text. *)

val add_counter : t -> int -> (unit -> unit) -> unit
(** Add a counting probe at [addr]: [f ()] runs just before each
    execution of the instruction there, and must only count (no machine
    state is passed to it).  It is compiled into the slot's pre-decoded
    closure, kept across {!patch} and {!rollback}, so a counted slot
    stays inside blocks; the probed-slot path runs it too.  Each call
    counts as one {!probe_dispatches}.
    @raise Fault if [addr] is outside text. *)

val output : t -> string
(** Everything the program printed via the print traps. *)

val print_string : t -> string -> unit

val sbrk : t -> int -> int
(** Advance the heap break by [bytes] (rounded up to 8); returns the old
    break. *)

val fetch_at : t -> int -> Sparc.Insn.t
(** @raise Fault if [addr] is outside text. *)

val patch : t -> int -> Sparc.Insn.t -> unit
(** Replace the decoded instruction at [addr] — the primitive beneath
    Kessler-style fast-breakpoint patches.  The slot's pre-decoded
    closure is recompiled in place, with its counters, and every block
    that can cover the slot re-forms on its next run, so the patch takes
    effect at the next instruction. *)

val add_cycles : t -> int -> unit
(** Charge extra cycles (used by trap handlers modelling expensive
    kernel paths, e.g. the dbx single-step comparison). *)

(** Direct state access for services, the MRS runtime, and tests. *)

val mem : t -> Memory.t
val config : t -> config
val pc : t -> int
val set_pc : t -> int -> unit
val brk : t -> int
val halted : t -> int option
val set_store_hook : t -> (t -> addr:int -> width:Sparc.Insn.width -> unit) -> unit
(** Register an observer invoked after every executed store with its
    effective address (the test oracle; the hardware-watchpoint
    strategy; a replay query's watch).  Hooks compose: each registered
    hook runs in registration order, after the built-in store
    observers ({!set_marks}, {!heat_install}).  Registration is
    amortized O(1) (hooks live in a counted array), and a machine with
    no store observer of either kind pays only one integer test per
    store.

    Hooks run inside {!run_to}'s blocks, so a hook must never halt the
    machine, patch text, add a probe or move the pc; it may read any
    state, raise, or record.  The dispatcher checks this after each
    access's hooks.
    @raise Invalid_argument (from the access) when a hook broke it. *)

val remove_store_hook :
  t -> (t -> addr:int -> width:Sparc.Insn.width -> unit) -> unit
(** Unregister the first hook physically equal to the one given (no-op
    when none is); the others keep their order.  Not from inside a
    hook. *)

val set_marks : t -> Written.builder option -> unit
(** [Some b]: from now on every executed store marks the words it wrote
    in [b] (the same marks as {!Written.add}), inline in the store
    body — the replay engine records its windows this way.  [None]
    stops marking.  Marks are made whether or not observers are paused:
    recording is not an observer (replay runs with [None]). *)

val heat_install : t -> Heatmap.t -> check_site:(int -> bool) -> unit
(** Count every executed store in the heatmap's page cell, inline in
    the store body, and a check too when [check_site pc] holds for the
    store's pc.  [check_site] is asked once per text slot, here, so
    patching text later changes no flag.  Counts are made only while
    {!observing}.
    @raise Invalid_argument when the heatmap's pages are not memory
    pages, or one is already installed. *)

val set_load_hook : t -> (t -> addr:int -> width:Sparc.Insn.width -> unit) -> unit
(** Same for loads (the read-monitoring oracle), under the same
    contract. *)

type checkpoint

val checkpoint : t -> checkpoint
(** Capture the entire architectural state — memory, windows, cache,
    pc, flags, patched text, output, counters (§5: checkpointing for
    replayed execution).  Copy-on-write: memory capture is O(1); only
    pages dirtied after the checkpoint get packed into it, and
    checkpoints taken back-to-back share every untouched page, every
    cache-tag chunk no miss changed and, absent patching, one text
    copy. *)

val rollback : t -> checkpoint -> unit
(** Restore a checkpoint exactly — including cache tags and hit/miss
    counters — so subsequent execution replays the original run
    deterministically, reproducing {!stats} bit-for-bit.  O(resident
    pages) table rebuild: restored pages the checkpoint still shares
    stay shared, and its packed pages are unpacked. *)

val checkpoint_view : checkpoint -> Memory.view
(** The memory view captured by the checkpoint (page-sharing
    accounting: {!Memory.view_diff} between adjacent checkpoints). *)

val checkpoint_overhead_bytes : checkpoint -> int
(** Fixed non-page cost of the checkpoint (cache tags, window frames,
    captured output, scalars); page bytes are the journal's to count. *)

val diverges : t -> checkpoint -> (string * string) option
(** The replay determinism guard: [None] when the live machine's
    architectural state equals the checkpoint's — pc, flags, break,
    halt status, output, register windows and every memory word — or
    [Some (expected, actual)] naming the first component that differs,
    e.g. [("word 0xf00000=0", "word 0xf00000=57005")].  Execution
    counters and cache state are excluded (compare {!stats}
    separately).  Memory pages still shared with the checkpoint compare
    equal without a scan, and a page present on one side only reads as
    zeros, so page materialization cannot perturb the verdict. *)

type stats = {
  instrs : int;
  cycles : int;
  loads : int;
  stores : int;
  branches : int;
  traps : int;
  cache_hits : int;
      (** derived: fetches ([instrs]) plus data accesses (a double-word
          access counts two) minus [cache_misses] *)
  cache_misses : int;
  window_spills : int;
}

val stats : t -> stats

(** {2 Dispatch counters}

    Observability-only counters, exposed separately from {!stats}:
    the differential fuzz harness demands that a probe-free fast run and
    a probed slow run agree on [stats], and these necessarily differ. *)

val instr_count : t -> int
(** Instructions executed so far ([(stats t).instrs] without building
    the record — cheap enough for per-hit trace events). *)

val cycle_count : t -> int
(** Simulated cycles so far ([(stats t).cycles] without the record). *)

val probe_dispatches : t -> int
(** Total probe and counter invocations: each control probe fired and
    each counter bumped, on either path. *)

val store_hook_dispatches : t -> int
(** Total store-observer invocations across all executed stores: each
    store counts one per registered hook and one per built-in observer
    installed ({!set_marks}, {!heat_install}), paused or not. *)

val load_hook_dispatches : t -> int

val trap_count : t -> int
(** Executed [ta] instructions ([(stats t).traps]). *)

(** {2 Observer hooks}

    The interpreter side of {!Profile} and the time-series sampler.
    Neither is part of {!stats} (fast/generic differential parity is
    preserved).  Both sit behind one pause gate: with neither installed,
    or inside {!without_observers}, every block and every step pays one
    boolean test. *)

val profile_static : t -> (int * int) array
(** Per-slot [(kind, static target slot or -1)] classification of the
    current text ([Profile.kind_*] values) — the input to
    {!Profile.create}'s block discovery.  Reflects patches applied so
    far; take it after instrumentation for patched-text profiles. *)

val profile_install : t -> Profile.t -> unit
(** Attach a profiler built over this machine's text
    ({!profile_static}).  The interpreter bumps its
    {!Profile.exec_array} slot for every executed instruction and its
    {!Profile.taken_array} slot for every executed branch that left the
    fall-through, and calls {!Profile.transfer} after every call and
    return with the destination pc and the machine totals.  Inside
    {!run_to}'s blocks only a block's last slot can be a branch, call or
    return, so only it is tested; probed slots and traps are counted by
    {!step}.
    @raise Invalid_argument if the profile's arrays are shorter than
    text. *)

val sample_install : t -> every:int -> hook:(int -> unit) -> unit
(** Attach the sampler: [hook insn] fires with the live instruction
    count after every [every]th observed instruction.  The count until
    the next sample is a deadline for {!run_to}: a block runs only when
    it ends at or before it, else the loop steps up to the sample, so
    the hook fires on the same instruction as under {!step}.  The
    countdown survives {!rollback} and stands still inside
    {!without_observers}.
    @raise Invalid_argument when [every < 1]. *)

val observing : t -> bool
(** [false] inside {!without_observers}, [true] otherwise.  The heat
    counts ({!heat_install}) and the passive observers outside the
    interpreter (the oracle's hooks, the MRS's notification callback
    and hit observers) test it, so one gate pauses every observer. *)

val without_observers : t -> (unit -> 'a) -> 'a
(** [without_observers t f] runs [f] with every observer paused: the
    profiler and sampler do not run, and {!observing} is [false].
    Replay queries re-execute recorded instructions under it, so they
    are never counted twice and produce no phantom samples.  The
    previous state is restored when [f] returns or raises, so calls
    nest. *)
