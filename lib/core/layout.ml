(* Memory layout of the monitored region service's own data structures.

   The MRS lives in the debugged program's address space (§2.1), in an
   arena far above program data and stack.  The MRS protects itself by
   creating internal monitored regions over these structures. *)

type t = {
  seg_bits : int;          (* log2 of segment size in BYTES; 9 = 128 words *)
  table_base : int;        (* segment table: one word per segment *)
  segments_base : int;     (* bitmap segment arena, bump-allocated *)
  shadow_base : int;       (* shadow stack for %fp / return checking *)
  hash_base : int;         (* hash-table lookup structure (baseline) *)
  hash_buckets : int;
}

let default_seg_bits = 9  (* 512 bytes = 128 words, the paper's choice *)

let v ?(seg_bits = default_seg_bits) () =
  if seg_bits < 7 || seg_bits > 16 then invalid_arg "Layout.v: seg_bits";
  {
    seg_bits;
    table_base = 0x9000_0000;
    segments_base = 0xA000_0000;
    shadow_base = 0xB000_0000;
    hash_base = 0xB800_0000;
    hash_buckets = 1024;
  }

let segment_words t = (1 lsl t.seg_bits) / 4

(* Bitmap segment: one bit per word -> segment_words/8 bytes, rounded to
   a word multiple. *)
let segment_bitmap_bytes t = ((segment_words t + 31) / 32) * 4

let segment_of t addr = Sparc.Word.to_unsigned addr lsr t.seg_bits

let table_entry_addr t addr = t.table_base + (4 * segment_of t addr)

(* Word index within its segment. *)
let word_in_segment t addr =
  Sparc.Word.to_unsigned addr lsr 2 land (segment_words t - 1)
