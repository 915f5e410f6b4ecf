(** Time-travel data breakpoints: record a run under interval
    checkpointing, then answer "who wrote this word, and when?"
    retroactively by restoring the nearest checkpoint and re-executing
    under a watch (§5's replayed-execution application; the search
    strategy of Arya et al.'s Transition Watchpoints).

    The replay watch is {e host-side} — a store hook observing
    effective addresses, like the hardware-watchpoint strategy's
    oracle.  It writes nothing into simulated memory and triggers no
    trap instruction, so the replayed program's architectural outcome
    is byte-identical with or without a watch armed (Price's
    virtual-breakpoint invisibility property).  The determinism guard
    leans on this: whenever a re-execution lands on a retained
    checkpoint, the machine must equal that checkpoint in full
    ({!Snapshot.diverges}), or {!Determinism_violation} is raised.

    Queries replay only the windows that stored to the watched words.
    While the run is recorded, the same store hook marks every word each
    store instruction writes, and each checkpoint keeps the marks of the
    window it closes ({!Snapshot.written}, exact per word; eviction
    merges a victim's marks into its successor).  A window whose marks
    miss the range cannot produce a hit and is skipped without
    restoring anything.  Host-side writes (a trap handler or the
    debugger writing simulated memory) are not marked: they run no
    store hook, so replaying them produces no hit either.

    Recording and replay run the interpreter through {!Machine.Cpu.run_to},
    stopped at checkpoint boundaries or at the replay target. *)

type hit = {
  h_insn : int;  (** instruction count {e including} the store *)
  h_pc : int;  (** pc of the store instruction *)
  h_addr : int;  (** word-aligned address written *)
  h_old : int;  (** word value before the store *)
  h_new : int;  (** word value after *)
  h_width : Sparc.Insn.width;
}

exception Determinism_violation of {
  insn : int;
  expected : string;
  actual : string;
}
(** Re-execution reached a checkpointed instruction count in a
    different architectural state than the original run.  [expected]
    and [actual] name the first differing component, recorded vs
    replayed — e.g. ["word 0xf00000=0"] vs ["word 0xf00000=57005"]. *)

type t

val create :
  ?telemetry:Telemetry.t ->
  ?audit:Audit.t ->
  ?budget_bytes:int ->
  ?checkpoint_every:int ->
  Machine.Cpu.t ->
  t
(** Attach a replay engine to a machine.  One store hook is installed
    immediately (disarmed: one flag test per store until a query arms
    it).  [checkpoint_every] (default 10000) is the journal interval in
    executed instructions; [budget_bytes] enables exponential-thinning
    eviction.  [telemetry]/[audit] receive checkpoint and
    replay lifecycle counters/events, gated by their own flags
    (defaults: disabled instances). *)

val record_slice : ?fuel:int -> t -> [ `Exited of int | `Out_of_fuel of int ]
(** Advance the recording by at most [fuel] instructions (the service
    daemon's fairness quantum).  Checkpoints land exactly where a
    one-shot {!record} would put them — interval boundaries and the
    halt — so a run recorded in N slices yields the same journal, the
    same telemetry and the same retroactive-query answers as a run
    recorded in one.  [`Out_of_fuel n] means [n] instructions were
    executed and the program is still running (call again to resume);
    [`Exited code] finalizes the recording.  Once recorded, further
    calls return [`Exited code] without touching the machine. *)

val record : ?fuel:int -> t -> int
(** Run the program to completion, checkpointing at the interval plus
    once at start and once at halt; returns the exit code.
    @raise Machine.Cpu.Out_of_fuel after [fuel] instructions
    (default 2·10{^8}).
    @raise Invalid_argument if already recorded. *)

val journal : t -> Journal.t
val interval : t -> int

val end_insn : t -> int
(** Instruction count at the recorded halt. *)

val replayed_insns : t -> int
(** Total instructions re-executed by travels and queries so far. *)

(** {1 Time travel} *)

val travel : ?guard:bool -> t -> insn:int -> int
(** Move the machine to its state just after instruction [insn] of the
    recorded run: restore the latest checkpoint at or before [insn] and
    re-execute the gap.  Returns the number of re-executed
    instructions.  [guard] (default true) applies the determinism check
    when [insn] is itself a retained checkpoint.
    @raise Determinism_violation if the replayed state differs.
    @raise Invalid_argument if the run is unrecorded or [insn] is
    outside it. *)

val replay_from : ?guard:bool -> t -> Snapshot.t -> insn:int -> int
(** Like {!travel} but from an explicit starting checkpoint — the
    determinism-guard test replays every checkpoint-to-checkpoint
    window with this. *)

(** {1 Retroactive queries} *)

val last_write : ?guard:bool -> t -> lo:int -> hi:int -> hit option
(** The final store of the recorded run that landed in byte range
    [[lo, hi)]: scans checkpoint windows newest-first and replays, under
    an armed watch, the first one that stored to the range — it holds
    the hit.  Returns the exact
    (instruction index, pc, old/new value) of that store, or [None] if
    the range was never written.  Leaves the machine at the recorded
    end state. *)

val last_write_word : ?guard:bool -> t -> addr:int -> hit option
(** {!last_write} over the word containing [addr]. *)

val write_history : ?guard:bool -> t -> lo:int -> hi:int -> hit list
(** Every store of the recorded run landing in [[lo, hi)], in execution
    order.  Replays only the windows that stored to the range, each
    from its own checkpoint, and guards every replayed window.  Leaves
    the machine at the recorded end state. *)

(** {1 Low-level watch control}

    Exposed for tests; queries above manage these themselves. *)

val arm : t -> lo:int -> hi:int -> unit
(** Reset hit collection and watch [[lo, hi)] from now on; old values
    seed from current memory. *)

val disarm : t -> unit
