(** Address-space layout of the monitored region service structures
    (segment table, bitmap segment arena, shadow stack, hash table).
    All live in the debugged program's simulated address space, as in
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

val segment_words : t -> int
val segment_bitmap_bytes : t -> int

val segment_of : t -> int -> int
(** Segment number of an address ([addr >> seg_bits], unsigned). *)

val table_entry_addr : t -> int -> int
val word_in_segment : t -> int -> int
