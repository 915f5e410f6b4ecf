open Machine

(* The segmented bitmap (§3, Figure 2), maintained in the debugged
   program's simulated memory so the generated check code can consult
   it with ordinary loads.

   Segment table entry layout: [segment_pointer | monitored_flag] with
   the flag in the otherwise-unused low bit.  A zero entry means "no
   segment allocated" and reads as unmonitored, so the table needs no
   initialization (fresh simulated memory is zero).  A segment's flag
   means "its bitmap has a set bit" and is derived from the bitmap
   words themselves, so a memory rollback restores it with them
   (§3.1). *)

type t = {
  layout : Layout.t;
  mem : Memory.t;
  telemetry : Telemetry.t option;
}

let create ?telemetry layout mem = { layout; mem; telemetry }

(* Segments are bump-allocated upward from [segments_base], past the MRS
   state block at the end of the arena's first page (every segment size
   divides [Layout.state_offset]).  The count lives in simulated memory
   ({!Layout.arena_used}), so a rollback rewinds it. *)
let segments t = Sparc.Word.to_unsigned (Memory.read_word t.mem Layout.arena_used)

let segment_addr t k =
  let off = k * Layout.segment_bitmap_bytes t.layout in
  t.layout.Layout.segments_base + off
  + if off >= Layout.state_offset then Layout.state_bytes else 0

let space_bytes t = segments t * Layout.segment_bitmap_bytes t.layout

let entry_addr t addr = Layout.table_entry_addr t.layout addr

(* Segment pointer for the segment containing [addr], allocating (and
   installing) a zeroed segment on first use. *)
let segment_ptr t addr =
  let ea = entry_addr t addr in
  let entry = Sparc.Word.to_unsigned (Memory.read_word t.mem ea) in
  if entry land lnot 1 <> 0 then entry land lnot 1
  else begin
    let k = segments t in
    let ptr = segment_addr t k in
    Memory.write_word t.mem Layout.arena_used (k + 1);
    Memory.write_word t.mem ea (ptr lor (entry land 1));
    (match t.telemetry with
    | Some tel -> Telemetry.incr tel Telemetry.Seg_segments_allocated
    | None -> ());
    ptr
  end

let set_flag t addr flag =
  let ea = entry_addr t addr in
  let entry = Sparc.Word.to_unsigned (Memory.read_word t.mem ea) in
  let entry = if flag then entry lor 1 else entry land lnot 1 in
  Memory.write_word t.mem ea entry

let bit_location t addr =
  let widx = Layout.word_in_segment t.layout addr in
  (4 * (widx lsr 5), widx land 31)

(* Does the segment bitmap at [ptr] have a set bit? *)
let any_bit t ptr =
  let rec go off =
    off < Layout.segment_bitmap_bytes t.layout
    && (Memory.read_word t.mem (ptr + off) <> 0 || go (off + 4))
  in
  go 0

let set_word_bit t addr value =
  let ptr = segment_ptr t addr in
  let word_off, bit = bit_location t addr in
  let w = Sparc.Word.to_unsigned (Memory.read_word t.mem (ptr + word_off)) in
  let w' = if value then w lor (1 lsl bit) else w land lnot (1 lsl bit) in
  Memory.write_word t.mem (ptr + word_off) w';
  if w' <> w then set_flag t addr (value || any_bit t ptr)

let iter_region_words (region : Region.t) f =
  let lo = region.lo and hi = region.hi in
  let rec go a = if a <= hi then (f a; go (a + 4)) in
  go lo

let add_region t region = iter_region_words region (fun a -> set_word_bit t a true)

let remove_region t region =
  iter_region_words region (fun a -> set_word_bit t a false)

(* Reference query, reading the same in-memory structures the check
   code reads — the oracle for the instruction-level tests. *)
let monitored t addr =
  let ea = entry_addr t addr in
  let entry = Sparc.Word.to_unsigned (Memory.read_word t.mem ea) in
  if entry land 1 = 0 then false
  else begin
    let ptr = entry land lnot 1 in
    let word_off, bit = bit_location t addr in
    let w = Sparc.Word.to_unsigned (Memory.read_word t.mem (ptr + word_off)) in
    w land (1 lsl bit) <> 0
  end

let segment_monitored t addr =
  let entry = Sparc.Word.to_unsigned (Memory.read_word t.mem (entry_addr t addr)) in
  entry land 1 <> 0

(* Set bits over the allocated segments. *)
let monitored_words t =
  let rec popcount w = if w = 0 then 0 else 1 + popcount (w land (w - 1)) in
  let acc = ref 0 in
  for k = 0 to segments t - 1 do
    let ptr = segment_addr t k in
    for off = 0 to (Layout.segment_bitmap_bytes t.layout / 4) - 1 do
      acc := !acc + popcount (Sparc.Word.to_unsigned (Memory.read_word t.mem (ptr + (4 * off))))
    done
  done;
  !acc
