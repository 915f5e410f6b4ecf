open Sparc

(* Direct-mapped cache model.  [access] runs once per instruction fetch
   and once per data access, so it is one of the simulator's hottest
   functions: the line index uses a bit mask whenever the line count is
   a power of two (the seed's [mod] compiled to an integer divide), and
   validity is folded into the tag array (tag [-1] can never match a
   real line address, which is non-negative).

   For checkpoints the tags are cut into chunks of [1 lsl chunk_bits]
   lines, and the miss path marks its chunk in [dirty]: a snapshot
   copies only the chunks some miss changed since the previous
   snapshot taken or restored ([base]) and shares the others with it. *)

type t = {
  line_bits : int;
  lines : int;
  mask : int;  (* [lines - 1] when lines is a power of two, else [-1] *)
  tags : int array;
  dirty : Bytes.t;  (* one byte per chunk, non-zero when it changed *)
  mutable base : int array array;  (* chunks of the last snapshot, or [||] *)
  mutable hits : int;
  mutable misses : int;
}

let chunk_bits = 6

let invalid_tag = -1

let create ?(size_bytes = 64 * 1024) ?(line_bytes = 32) () =
  if size_bytes mod line_bytes <> 0 then invalid_arg "Cache.create";
  let lines = size_bytes / line_bytes in
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
  {
    line_bits = log2 line_bytes;
    lines;
    mask = (if lines land (lines - 1) = 0 then lines - 1 else -1);
    tags = Array.make lines invalid_tag;
    dirty = Bytes.make (((lines - 1) lsr chunk_bits) + 1) '\001';
    base = [||];
    hits = 0;
    misses = 0;
  }

let access t addr =
  let line_addr = Word.to_unsigned addr lsr t.line_bits in
  let idx =
    if t.mask >= 0 then line_addr land t.mask else line_addr mod t.lines
  in
  if Array.unsafe_get t.tags idx = line_addr then begin
    t.hits <- t.hits + 1;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    Array.unsafe_set t.tags idx line_addr;
    Bytes.unsafe_set t.dirty (idx lsr chunk_bits) '\001';
    false
  end

let hits t = t.hits
let misses t = t.misses

(* Exact state capture for checkpoint/replay: restoring tags *and*
   counters makes re-execution from a checkpoint reproduce the original
   run's hit/miss stream (and hence cycle counts) bit-for-bit.  Chunks
   are never written after capture, so snapshots may share them. *)
type snapshot = { s_chunks : int array array; s_lines : int; s_hits : int; s_misses : int }

let snapshot t =
  let chunks =
    Array.init (Bytes.length t.dirty) (fun c ->
        if Bytes.get t.dirty c = '\000' then t.base.(c)
        else
          let lo = c lsl chunk_bits in
          Array.sub t.tags lo (min (1 lsl chunk_bits) (t.lines - lo)))
  in
  Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000';
  t.base <- chunks;
  { s_chunks = chunks; s_lines = t.lines; s_hits = t.hits; s_misses = t.misses }

let restore t s =
  if s.s_lines <> t.lines then invalid_arg "Cache.restore";
  Array.iteri
    (fun c chunk -> Array.blit chunk 0 t.tags (c lsl chunk_bits) (Array.length chunk))
    s.s_chunks;
  Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000';
  t.base <- s.s_chunks;
  t.hits <- s.s_hits;
  t.misses <- s.s_misses

let snapshot_bytes s = s.s_lines * 8
