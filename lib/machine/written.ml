open Sparc

(* Which words one checkpoint window stored to, exact per word: one
   32-bit mask per 128-byte block, bit [i] standing for the block's
   word [i].  Addresses are taken as the interpreter's store bodies
   compute them, with the same word arithmetic ([land lnot 3]) the
   replay watch uses, so a range overlaps a summary exactly when
   replaying the window under a watch on that range would report a
   hit. *)

let block_bits = 7
let word_mask = (1 lsl (block_bits - 2)) - 1

(* Frozen form: block keys ascending, interleaved with their masks
   ([|key0; mask0; key1; mask1; ...|]); no mask is zero. *)
type t = int array

let blocks t = Array.length t / 2

let words t =
  let acc = ref [] in
  for b = blocks t - 1 downto 0 do
    for i = word_mask downto 0 do
      if t.((2 * b) + 1) land (1 lsl i) <> 0 then
        acc := ((t.(2 * b) lsl block_bits) + (i * 4)) :: !acc
    done
  done;
  !acc

(* Mask of block [key], or 0: binary search over the keys. *)
let mask_of t key =
  let rec go lo hi =
    if lo >= hi then 0
    else
      let mid = (lo + hi) / 2 in
      let k = t.(2 * mid) in
      if k = key then t.((2 * mid) + 1)
      else if k < key then go (mid + 1) hi
      else go lo mid
  in
  go 0 (blocks t)

(* Word [w] overlaps [[lo, hi)] when [w + 4 > lo && w < hi]: in block
   [key] those are the words from the one holding [lo] to the one
   holding [hi - 1]. *)
let overlaps t ~lo ~hi =
  let rec go key last =
    key <= last
    && (let base = key lsl block_bits in
        let first_w = if lo > base then (lo - base) asr 2 else 0 in
        let last_w = min word_mask ((hi - 1 - base) asr 2) in
        let range = ((1 lsl (last_w - first_w + 1)) - 1) lsl first_w in
        mask_of t key land range <> 0 || go (key + 1) last)
  in
  lo < hi && Array.length t > 0 && go (lo asr block_bits) ((hi - 1) asr block_bits)

let union a b =
  let na = blocks a and nb = blocks b in
  if na = 0 then b
  else if nb = 0 then a
  else begin
    let out = Array.make (2 * (na + nb)) 0 in
    let rec go i j n =
      let emit key mask i j =
        out.(2 * n) <- key;
        out.((2 * n) + 1) <- mask;
        go i j (n + 1)
      in
      if i = na && j = nb then n
      else if j = nb || (i < na && a.(2 * i) < b.(2 * j)) then
        emit a.(2 * i) a.((2 * i) + 1) (i + 1) j
      else if i = na || b.(2 * j) < a.(2 * i) then
        emit b.(2 * j) b.((2 * j) + 1) i (j + 1)
      else emit a.(2 * i) (a.((2 * i) + 1) lor b.((2 * j) + 1)) (i + 1) (j + 1)
    in
    Array.sub out 0 (2 * go 0 0 0)
  end

(* --- accumulation ------------------------------------------------------- *)

(* Marks live in a direct-indexed table over the 20-bit page number,
   two levels like {!Memory}'s page table: a page's row holds its 32
   block masks, then a flag saying the page is listed in [touched].
   [take] zeroes the rows it reads and keeps them, so a window of
   stores to pages seen before allocates nothing.  The last row
   written is cached, so a store to the same page as the previous one
   is a compare, a shift and an [lor]; {!Cpu}'s store bodies make that
   mark inline. *)
let page_bits = 12
let row_blocks = 1 lsl (page_bits - block_bits)
let row_mask = row_blocks - 1
let l2_bits = 10
let l2_mask = (1 lsl l2_bits) - 1
let page_mask = (1 lsl (32 - page_bits)) - 1
let no_row = [||]
let no_l2 = Array.make (1 lsl l2_bits) no_row

type builder = {
  dir : int array array array;
  mutable touched : int array;  (* signed page numbers, [n_touched] used *)
  mutable n_touched : int;
  mutable page : int;  (* signed page number of [row], or [no_key] *)
  mutable row : int array;
}

let no_key = min_int

let builder () =
  {
    dir = Array.make (1 lsl (32 - page_bits - l2_bits)) no_l2;
    touched = Array.make 16 0;
    n_touched = 0;
    page = no_key;
    row = no_row;
  }

let row b page =
  let key = page land page_mask in
  let l2 =
    let l2 = b.dir.(key lsr l2_bits) in
    if l2 != no_l2 then l2
    else begin
      let l2 = Array.make (1 lsl l2_bits) no_row in
      b.dir.(key lsr l2_bits) <- l2;
      l2
    end
  in
  let row =
    let row = l2.(key land l2_mask) in
    if row != no_row then row
    else begin
      let row = Array.make (row_blocks + 1) 0 in
      l2.(key land l2_mask) <- row;
      row
    end
  in
  if row.(row_blocks) = 0 then begin
    row.(row_blocks) <- 1;
    if b.n_touched = Array.length b.touched then
      b.touched <- Array.append b.touched b.touched;
    b.touched.(b.n_touched) <- page;
    b.n_touched <- b.n_touched + 1
  end;
  b.row <- row;
  b.page <- page;
  row

let mark b addr =
  let addr = Word.norm addr in
  let page = addr asr page_bits in
  let row = if page = b.page then b.row else row b page in
  let blk = (addr lsr block_bits) land row_mask in
  Array.unsafe_set row blk
    (Array.unsafe_get row blk lor (1 lsl ((addr asr 2) land word_mask)))

let add b ~addr ~width =
  mark b addr;
  match width with
  | Insn.Double -> mark b (addr + 4)
  | Insn.Byte | Insn.Half | Insn.Word -> ()

let take b =
  let pages = Array.sub b.touched 0 b.n_touched in
  Array.sort compare pages;
  let out = ref [] in
  Array.iter
    (fun page ->
      let key = page land page_mask in
      let row = b.dir.(key lsr l2_bits).(key land l2_mask) in
      for blk = 0 to row_blocks - 1 do
        if row.(blk) <> 0 then begin
          out := row.(blk) :: ((page lsl (page_bits - block_bits)) + blk) :: !out;
          row.(blk) <- 0
        end
      done;
      row.(row_blocks) <- 0)
    pages;
  b.n_touched <- 0;
  b.page <- no_key;
  Array.of_list (List.rev !out)
