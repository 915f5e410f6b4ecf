(** One checkpoint of the whole machine, tagged for the replay journal.

    Wraps {!Machine.Cpu.checkpoint} — a copy-on-write capture of memory
    (O(1); pages are generation-tagged and shared between snapshots
    until a write separates them), register windows, cache tags and
    counters, patched text and output — with the metadata the journal
    needs: the executed-instruction count at capture (the journal key)
    and a capture-order sequence number.  The determinism guard needs
    nothing more: it compares a replay with the retained checkpoint
    itself ({!diverges}), so capture hashes nothing.

    Because the MRS keeps all the state execution reads (segment
    bitmap, region table, allocation counts) in simulated memory and
    its enabled flag in [%g6], a snapshot captures the MRS for free:
    restoring one restores the monitoring state the original run had
    at that instant. *)

type t

val capture : seq:int -> written:Machine.Written.t -> Machine.Cpu.t -> t
(** Snapshot the machine now.  [seq] is the caller-assigned capture
    order (kept per replay instance so parallel bench domains share no
    state); [written] summarizes the stores made since the previous
    checkpoint. *)

val restore : Machine.Cpu.t -> t -> unit
(** Exact rollback, including cache state — replay from here reproduces
    the original run's {!Machine.Cpu.stats} bit-for-bit. *)

val diverges : Machine.Cpu.t -> t -> (string * string) option
(** {!Machine.Cpu.diverges} against this snapshot: [None] when the live
    machine's architectural state equals the captured one, else the
    first differing component as [(expected, actual)]. *)

val insn : t -> int
(** Executed-instruction count at capture — the journal key. *)

val seq : t -> int
(** Global capture order (deterministic eviction tie-break). *)

val view : t -> Machine.Memory.view

val written : t -> Machine.Written.t
(** The words stored to between the previous retained checkpoint and
    this one. *)

val absorb : t -> victim:t -> unit
(** Widen [t]'s window over that of [victim], the evicted checkpoint
    just before it: [written t] becomes the union of both summaries. *)

val pages : t -> int
(** Pages resident in the captured view (shared or private). *)

val delta_pages : prev:t option -> t -> int
(** Pages not physically shared with [prev] — what this snapshot
    actually cost to retain, given its predecessor is retained too. *)

val bytes : prev:t option -> t -> int
(** Attributed size: delta pages plus the fixed per-checkpoint overhead
    (cache tags, windows, output, scalars). *)

val bytes_of_delta : t -> int -> int
(** [bytes] given [delta_pages] already computed. *)
