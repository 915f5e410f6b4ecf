(** Bounded checkpoint journal, keyed by executed-instruction count.

    The replay engine appends one {!Snapshot.t} every N executed
    instructions ([--checkpoint-every N]).  Under an optional byte
    budget the journal evicts interior entries by {e exponential
    thinning}: the victim is the entry whose removal creates the
    smallest gap relative to its age, so recent history stays densely
    checkpointed while old history gets sparse — the expected
    re-execution distance to a target grows with the target's age
    instead of with total run length.  The first and the most recent
    entry are never evicted.

    Accounting is COW-aware: each entry is attributed the pages it does
    {e not} share with the previous retained entry (plus the fixed
    per-checkpoint overhead), and eviction re-derives the successor's
    attribution against its new predecessor — mirroring exactly what
    the garbage collector can reclaim.  Eviction also merges the
    victim's store summary into its successor ({!Snapshot.absorb}), so
    each retained checkpoint's {!Snapshot.written} covers its whole,
    widened window. *)

type entry = {
  snap : Snapshot.t;
  delta_pages : int;  (** pages captured fresh vs the previous retained entry *)
  shared_pages : int;  (** pages shared with that entry *)
  bytes : int;  (** attributed retention cost *)
}

type t

val create :
  ?on_evict:(Snapshot.t -> unit) -> ?budget_bytes:int -> ?interval:int ->
  unit -> t
(** [interval] (default 1) is the checkpoint spacing in executed
    instructions — recorded here as policy metadata; the replay engine
    consults it.  [budget_bytes] bounds the retained attributed bytes;
    omitted means unbounded.  [on_evict] observes each thinned
    snapshot (audit/telemetry).
    @raise Invalid_argument on a non-positive interval or budget. *)

val interval : t -> int
val length : t -> int

val retained_bytes : t -> int
(** Attributed bytes across retained entries — what the budget bounds. *)

val record : t -> Snapshot.t -> entry
(** Append a snapshot (instruction counts must be non-decreasing), then
    thin until back under budget.  Returns the new entry as captured:
    its pages copied, pages shared and bytes against the previous
    retained entry, before any thinning — the capture-time figures
    the replay engine adds to its telemetry.
    @raise Invalid_argument on out-of-order instruction counts. *)

val snapshots : t -> Snapshot.t list
(** Oldest first. *)

val nearest : t -> insn:int -> Snapshot.t option
(** Latest retained snapshot taken at or before [insn] — the replay
    starting point for a travel to [insn]. *)

val find : t -> insn:int -> Snapshot.t option
(** The retained snapshot taken exactly at [insn], if any. *)
