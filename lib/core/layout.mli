(** Address-space layout of the monitored region service structures
    (segment table, bitmap segment arena, shadow stack, hash table,
    region table).  All live in the debugged program's simulated address space, as in
    the paper (§2.1). *)

type t = {
  seg_bits : int;       (** log2 of the segment size in bytes; 9 = 128 words *)
  table_base : int;
  segments_base : int;
  shadow_base : int;
  hash_base : int;
  hash_buckets : int;
}

val default_seg_bits : int

val v : ?seg_bits:int -> unit -> t
(** @raise Invalid_argument if [seg_bits] is outside [7, 16]. *)

(** {2 MRS state words}

    Fixed addresses, not parameters: the bump counters and the region
    table the MRS keeps in the debugged program's memory, so that a
    memory rollback restores them with the bitmap.  Each word starts
    at 0.  They fill the last [state_bytes] of the bitmap arena's first
    page, from [state_offset] on; segments skip that block. *)

val state_offset : int
val state_bytes : int

val arena_used : int
(** Bitmap segments allocated so far. *)

val hash_used : int
(** Bytes of hash-table nodes allocated past the bucket array. *)

val region_count : int
(** Number of live region-table entries. *)

val region_table : int
(** Entry [i < region_inline] sits at [region_table + 16 i], a later one
    at [region_overflow + 16 (i - region_inline)]: [lo], [hi], owner,
    [%fp]. *)

val region_inline : int
val region_overflow : int
val region_capacity : int

val segment_words : t -> int
val segment_bitmap_bytes : t -> int

val table_entry_addr : t -> int -> int
val word_in_segment : t -> int -> int
