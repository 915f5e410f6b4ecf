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

    While the run is recorded, the interpreter's store bodies mark every
    word each store instruction writes ({!Machine.Cpu.set_marks}), and
    each checkpoint keeps the marks of the window it closes
    ({!Snapshot.written}, exact per word; eviction merges a victim's
    marks into its successor).  A query skips every window whose marks
    miss its range.  Host-side writes (a trap handler or the debugger
    writing simulated memory) run no store body, so they are neither
    marked nor reported.  Recording and replay both run the
    interpreter through {!Machine.Cpu.run_to}.  Replay counts nothing:
    {!advance} runs each leg inside {!Machine.Cpu.without_observers} and
    {!Telemetry.replaying}; only its restores, replayed instructions and
    their audit events are counted, outside that bracket. *)

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
(** Attach a replay engine to a machine: from now until the recorded
    run halts, the machine marks the words its stores write.  The
    watch's store hook is registered only while an armed leg replays,
    so the live run dispatches no hook of the engine's.
    [checkpoint_every] (default 10000) is the journal interval in
    executed instructions; [budget_bytes] enables exponential-thinning
    eviction.  [telemetry]/[audit] receive checkpoint and
    replay lifecycle counters/events (defaults: a private registry and
    a disabled journal).  [telemetry] is where the engine's counts
    live: checkpoints, pages copied and shared, bytes, evictions,
    restores and replayed instructions; its gate is shut while a leg
    replays. *)

val record_slice : ?fuel:int -> t -> [ `Exited of int | `Out_of_fuel of int ]
(** Advance the recording by at most [fuel] instructions (the service
    daemon's fairness quantum; default 2·10{^8}).  Checkpoints land
    where recording starts, every [checkpoint_every] instructions after
    that and at the halt, so a run recorded in N slices yields the same
    journal, the same telemetry and the same retroactive-query answers
    as a run recorded in one.  [`Out_of_fuel n] means [n] instructions were
    executed and the program is still running (call again to resume);
    [`Exited code] finalizes the recording.  Once recorded, further
    calls return [`Exited code] without touching the machine. *)

val journal : t -> Journal.t
val interval : t -> int

val end_insn : t -> int
(** Instruction count at the recorded halt. *)

(** {1 The replay cursor}

    One resumable cursor answers every question about the recorded run.
    It runs a queue of {e legs}: each restores a checkpoint and
    re-executes to a target instruction, under the watch or not, and the
    determinism guard checks every leg that ends on a retained
    checkpoint. *)

type _ goal =
  | Travel : int -> int goal
      (** Move the machine to its state just after instruction [insn]:
          restore the latest checkpoint at or before it and re-execute
          the gap.  Answers the number of re-executed instructions. *)
  | Last_write : { lo : int; hi : int } -> hit option goal
      (** The final store of the recorded run that landed in byte range
          [[lo, hi)], or [None] if none did.  Replays the written windows
          newest first and stops after the first that hits. *)
  | History : { lo : int; hi : int } -> hit list goal
      (** Every store of the recorded run landing in [[lo, hi)], in
          execution order.  Replays the written windows oldest first. *)

type 'a cursor

type 'a progress = More | Done of 'a

val cursor : ?guard:bool -> t -> 'a goal -> 'a cursor
(** A cursor toward [goal]; nothing runs until {!advance}.  [guard]
    (default true) applies the determinism check at every leg end that
    is a retained checkpoint.
    @raise Invalid_argument if the run is unrecorded or a travel target
    is outside it. *)

val advance : 'a cursor -> fuel:int -> 'a progress
(** Replay until [fuel] (positive) instructions have run or the goal is
    reached.  Skipped windows cost nothing.  [More] leaves the machine
    mid-replay: call again to resume, and touch the machine in between
    only through this cursor.  [Done] leaves it at the travel target, or
    at the recorded end state after a query.
    @raise Determinism_violation if a replayed leg diverges. *)

val query : ?guard:bool -> t -> 'a goal -> 'a
(** {!advance} a fresh cursor to its answer. *)

val replay_from : ?guard:bool -> t -> Snapshot.t -> insn:int -> int
(** One unarmed leg from an explicit starting checkpoint to [insn] —
    the determinism-guard tests replay every checkpoint-to-checkpoint
    window with this. *)
