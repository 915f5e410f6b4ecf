open Sparc

(* Which words one checkpoint window stored to, exact per word: one
   32-bit mask per 128-byte block, bit [i] standing for the block's
   word [i].  Addresses are taken as the interpreter hands them to its
   store hooks, with the same word arithmetic ([land lnot 3]) the
   replay watch uses, so a range overlaps a summary exactly when
   replaying the window under a watch on that range would report a
   hit. *)

let block_bits = 7
let word_mask = (1 lsl (block_bits - 2)) - 1

(* Frozen form: block keys ascending, interleaved with their masks
   ([|key0; mask0; key1; mask1; ...|]); no mask is zero. *)
type t = int array

let empty = [||]
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

let no_key = min_int

(* The block being written is cached outside the table, so a store to
   the same block as the previous one is a compare and an [lor]. *)
type builder = {
  table : (int, int) Hashtbl.t;
  mutable key : int;
  mutable mask : int;
}

let builder () = { table = Hashtbl.create 64; key = no_key; mask = 0 }

let mark b addr =
  let key = addr asr block_bits in
  if key <> b.key then begin
    if b.key <> no_key then Hashtbl.replace b.table b.key b.mask;
    b.key <- key;
    b.mask <- Option.value (Hashtbl.find_opt b.table key) ~default:0
  end;
  b.mask <- b.mask lor (1 lsl ((addr asr 2) land word_mask))

let add b ~addr ~width =
  mark b addr;
  match width with
  | Insn.Double -> mark b (addr + 4)
  | Insn.Byte | Insn.Half | Insn.Word -> ()

let take b =
  if b.key <> no_key then Hashtbl.replace b.table b.key b.mask;
  let pairs = Array.of_seq (Hashtbl.to_seq b.table) in
  Array.sort compare pairs;
  Hashtbl.reset b.table;
  b.key <- no_key;
  Array.init
    (2 * Array.length pairs)
    (fun i ->
      let key, mask = pairs.(i / 2) in
      if i land 1 = 0 then key else mask)
