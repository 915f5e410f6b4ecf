(** Direct-mapped combined instruction/data cache simulator.

    Mirrors the cache of the paper's SPARCstation: direct-mapped,
    combined I+D, 32-byte lines (§3.3.1).  Only hit/miss behaviour is
    modelled — contents live in {!Memory}. *)

type t = {
  line_bits : int;
  lines : int;
  mask : int;  (** [lines - 1] when [lines] is a power of two, else [-1] *)
  tags : int array;  (** per-line tag; [-1] marks an invalid line *)
  dirty : Bytes.t;
      (** one byte per chunk of [1 lsl chunk_bits] lines: non-zero when a
          miss changed the chunk since the last snapshot taken or
          restored *)
  mutable base : int array array;
      (** that snapshot's chunks ([[||]] before the first) *)
  mutable hits : int;  (** bumped by {!access} only *)
  mutable misses : int;
}
(** The representation is exposed so {!Cpu}'s hot loop can inline the
    access check (one array read per instruction fetch / data access)
    without a cross-module call; an inlined miss must mark its chunk
    dirty as {!access} does.  Code outside [Cpu] must treat it as
    abstract and go through {!access}.

    The hit count belongs to whoever probes the cache.  {!access} bumps
    [hits]; a {!Cpu} owns its cache's hits instead: its inlined probe
    counts only misses, skips the probe for fetches that cannot miss,
    and derives hits from its fetch and data-access counts
    ({!Cpu.stats}), so [hits] stays 0 in a [Cpu]'s cache. *)

val chunk_bits : int
(** Lines per tag chunk, as a power of two. *)

val create : ?size_bytes:int -> ?line_bytes:int -> unit -> t
(** Defaults: 64 KiB, 32-byte lines.
    @raise Invalid_argument if size is not a multiple of the line size. *)

val access : t -> int -> bool
(** Touch the line containing [addr]; returns [true] on hit and installs
    the line on miss. *)

val hits : t -> int
(** Hits of {!access} (not of a {!Cpu}'s inlined probe). *)

val misses : t -> int

(** {1 Checkpoint support} *)

type snapshot

val snapshot : t -> snapshot
(** Capture the tags and counters.  Restoring an exact cache state is
    what makes replayed execution reproduce the original hit/miss
    stream — and therefore identical cycle counts — from a checkpoint.
    Only the tag chunks a miss changed since the last snapshot taken or
    restored are copied; the rest are shared with that snapshot. *)

val restore : t -> snapshot -> unit
(** @raise Invalid_argument if the snapshot's geometry differs. *)

val snapshot_bytes : snapshot -> int
(** [lines * 8]: the tag array the snapshot stands for, as the journal
    accounts it, whether its chunks are shared or not. *)
