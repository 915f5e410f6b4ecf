(** The segmented bitmap (§3, Figure 2): one bit per monitored word,
    organized as lazily-allocated segments reached through a segment
    table whose entries pack the "this segment has monitored regions"
    flag into the pointer's low bit (§3.1).

    The structure lives in the debugged program's simulated memory;
    this module is the OCaml writer/reader the MRS uses on
    [CreateMonitoredRegion]/[DeleteMonitoredRegion], while the generated
    check code reads the same words with ordinary loads. *)

type t

val create : ?telemetry:Telemetry.t -> Layout.t -> Machine.Memory.t -> t
(** [telemetry] (when given) counts lazy segment allocations on
    [Telemetry.Seg_segments_allocated]. *)

val add_region : t -> Region.t -> unit
val remove_region : t -> Region.t -> unit

val monitored : t -> int -> bool
(** Is the word containing [addr] monitored?  Reads the in-memory
    structures exactly as the check code does. *)

val segment_monitored : t -> int -> bool
(** The unmonitored-flag test (low bit of the segment table entry). *)

val monitored_words : t -> int
(** Occupancy snapshot: the set bits over the segment arena (the
    [Telemetry.Seg_words_monitored] gauge). *)

val space_bytes : t -> int
(** Bytes of bitmap segment arena in use (for the ~3% space figure). *)
