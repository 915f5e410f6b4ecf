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

(* The MRS's own bookkeeping -- two bump counters and the region table --
   fills the top 1 KiB of the bitmap arena's first page, which segments
   skip.  Every word starts at 0, as fresh simulated memory reads, so a
   session that never creates a region never writes it; one that does
   already wrote this page for its first segment, so the state costs no
   page of its own while the arena fits below it.  Table entries past
   the 63 that fit here go on a page of their own. *)
let arena_base = 0xA000_0000
let state_offset = 0xC00
let state_bytes = 0x400
let arena_used = arena_base + state_offset  (* bitmap segments allocated *)
let hash_used = arena_used + 4              (* bytes of hash-table nodes *)
let region_count = arena_used + 8
let region_table = arena_used + 16          (* 16-byte entries: lo, hi, owner, %fp *)
let region_inline = 63
let region_overflow = 0x9800_0000           (* past the segment table *)
let region_capacity = 4096

let v ?(seg_bits = default_seg_bits) () =
  if seg_bits < 7 || seg_bits > 16 then invalid_arg "Layout.v: seg_bits";
  {
    seg_bits;
    table_base = 0x9000_0000;
    segments_base = arena_base;
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
