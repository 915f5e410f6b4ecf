open Sparc

exception Misaligned of { addr : int; width : int }

let page_bits = 12
let page_words = 1 lsl (page_bits - 2)
let page_bytes = 1 lsl page_bits
let offset_mask = (1 lsl page_bits) - 1
let l2_bits = 10
let l2_mask = (1 lsl l2_bits) - 1

module IntMap = Map.Make (Int)

(* A mapped page, and also a view's cell for it.  [gen] is the epoch
   in which the page was last made private: when [gen <> epoch] the
   record may be bound in a snapshot view and must not be written in
   place (copy-on-write).  A record bound in a view keeps sharing the
   live [arr] until the first write after the snapshot; that write
   packs the contents into [packed] (4 bytes per normalized word) and
   gives the live page a fresh record over the same [arr].  So at most
   one record shares any live array, and a frozen page costs 4 KiB
   instead of an 8 KiB [int array] copy. *)
type page = { mutable arr : int array; mutable gen : int; mutable packed : Bytes.t }

type view = page IntMap.t

type t = {
  (* Two-level page table over the 20-bit page key: [dir.(key lsr 10)]
     is a second level and its slot [key land 1023] the page.  Unmapped
     pages are the shared [absent] page and empty second levels the
     shared [absent_l2], so finding a page is plain indexing: no
     compare, no hash, no allocation. *)
  dir : page array array;
  mutable epoch : int;
  (* Persistent index of the live page records, maintained
     incrementally whenever a page gets a new record (materialization
     or its first write after a snapshot).  [snapshot_cow] is then
     O(1): bump the epoch and hand out the current map. *)
  mutable view : view;
  mutable cow_copies : int;  (* cumulative first writes to shared pages *)
}

(* [unpacked] marks a record whose contents are [arr]. *)
let unpacked = Bytes.empty

(* Never written: the contents of every unmapped page, and of a page
   one side of a diff has not materialized.  [gen = -1] never equals an
   epoch, so a write to [absent] always goes through [writable]. *)
let zero_page = Array.make page_words 0
let absent = { arr = zero_page; gen = -1; packed = unpacked }
let absent_l2 = Array.make (1 lsl l2_bits) absent

let create () =
  {
    dir = Array.make (1 lsl (32 - page_bits - l2_bits)) absent_l2;
    epoch = 1;
    view = IntMap.empty;
    cow_copies = 0;
  }

let[@inline] page t key =
  Array.unsafe_get (Array.unsafe_get t.dir (key lsr l2_bits)) (key land l2_mask)

let set_page t key p =
  let hi = key lsr l2_bits in
  let l2 = t.dir.(hi) in
  let l2 =
    if l2 != absent_l2 then l2
    else begin
      let l2 = Array.make (1 lsl l2_bits) absent in
      t.dir.(hi) <- l2;
      l2
    end
  in
  l2.(key land l2_mask) <- p

(* Words are normalized to 32 signed bits, so the 32-bit round trip is
   exact.  Every packed [Bytes] is [page_bytes] long. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let pack arr =
  let b = Bytes.create page_bytes in
  for i = 0 to page_words - 1 do
    set32 b (i lsl 2) (Int32.of_int (Array.unsafe_get arr i))
  done;
  b

let unpack b arr =
  for i = 0 to page_words - 1 do
    Array.unsafe_set arr i (Int32.to_int (get32 b (i lsl 2)))
  done;
  arr

let[@inline] cell_word p i =
  if p.packed == unpacked then Array.unsafe_get p.arr i
  else Int32.to_int (get32 p.packed (i lsl 2))

let writable t key =
  let p = page t key in
  let arr =
    if p == absent then Array.make page_words 0
    else begin
      let arr = p.arr in
      (* [p] may be bound in a view: freeze its contents there before
         the caller's write, and keep writing [arr] in place.  A page
         restored from a packed cell already holds that cell's bytes. *)
      if p.packed == unpacked then begin
        p.packed <- pack arr;
        p.arr <- zero_page
      end;
      t.cow_copies <- t.cow_copies + 1;
      arr
    end
  in
  let q = { arr; gen = t.epoch; packed = unpacked } in
  set_page t key q;
  t.view <- IntMap.add key q t.view;
  arr

let check_align addr width =
  if Word.to_unsigned addr land (width - 1) <> 0 then
    raise (Misaligned { addr; width })

let read_word t addr =
  let a = Word.to_unsigned addr in
  if a land 3 <> 0 then raise (Misaligned { addr; width = 4 });
  Array.unsafe_get (page t (a lsr page_bits)).arr ((a land offset_mask) lsr 2)

let write_word t addr v =
  let a = Word.to_unsigned addr in
  if a land 3 <> 0 then raise (Misaligned { addr; width = 4 });
  let key = a lsr page_bits in
  let p = page t key in
  let arr = if p.gen = t.epoch then p.arr else writable t key in
  Array.unsafe_set arr ((a land offset_mask) lsr 2) (Word.norm v)

let read_byte t addr =
  let w = read_word t (addr land lnot 3) in
  (* Big-endian byte order, as on SPARC. *)
  let shift = (3 - (Word.to_unsigned addr land 3)) * 8 in
  (Word.to_unsigned w lsr shift) land 0xFF

let write_byte t addr v =
  let base = addr land lnot 3 in
  let w = Word.to_unsigned (read_word t base) in
  let shift = (3 - (Word.to_unsigned addr land 3)) * 8 in
  let mask = lnot (0xFF lsl shift) land 0xFFFFFFFF in
  write_word t base ((w land mask) lor ((v land 0xFF) lsl shift))

let read_half t addr =
  check_align addr 2;
  let hi = read_byte t addr and lo = read_byte t (addr + 1) in
  (hi lsl 8) lor lo

let write_half t addr v =
  check_align addr 2;
  write_byte t addr (v lsr 8);
  write_byte t (addr + 1) v

let read_signed t addr = function
  | Insn.Word -> read_word t addr
  | Insn.Byte ->
    let b = read_byte t addr in
    if b land 0x80 <> 0 then b - 0x100 else b
  | Insn.Half ->
    let h = read_half t addr in
    if h land 0x8000 <> 0 then h - 0x10000 else h
  | Insn.Double -> invalid_arg "Memory.read_signed: Double"

let read_unsigned t addr = function
  | Insn.Word -> read_word t addr
  | Insn.Byte -> read_byte t addr
  | Insn.Half -> read_half t addr
  | Insn.Double -> invalid_arg "Memory.read_unsigned: Double"

(* --- Copy-on-write snapshots ----------------------------------------- *)

let snapshot_cow t =
  (* From now on every mapped page is shared with the returned view;
     the first write to each will pack it there. *)
  t.epoch <- t.epoch + 1;
  t.view

let restore_cow t view =
  (* Arrays no view can reach are reused for this view's packed cells:
     those of pages made private since the last snapshot or restore,
     and those the last restore unpacked into.  A replay that restores
     window after window then allocates no page. *)
  let spare = ref [] in
  IntMap.iter
    (fun key _ ->
      let p = page t key in
      if p.gen = t.epoch || p.packed != unpacked then spare := p.arr :: !spare;
      set_page t key absent)
    t.view;
  let private_array () =
    match !spare with
    | arr :: rest ->
      spare := rest;
      arr
    | [] -> Array.make page_words 0
  in
  IntMap.iter
    (* The restored records still belong to the snapshot, and every
       [gen] is below the epoch bumped below.  A record still sharing
       its array is mapped as it is, and its first write packs it; a
       packed one is unpacked into a private array that keeps the
       record's bytes, so that write has nothing left to pack. *)
    (fun key p ->
      set_page t key
        (if p.packed == unpacked then p
         else { arr = unpack p.packed (private_array ()); gen = 0; packed = p.packed }))
    view;
  t.view <- view;
  t.epoch <- t.epoch + 1

let epoch t = t.epoch
let cow_copies t = t.cow_copies
let view_pages v = IntMap.cardinal v

let view_diff prev next =
  (* Pages physically differing between two adjacent views: present in
     [next] with a different (or no) binding in [prev].  With [prev] the
     previous checkpoint's view this counts exactly the pages captured
     fresh by [next] — the O(dirty) cost of the checkpoint. *)
  IntMap.fold
    (fun key p acc ->
      match IntMap.find_opt key prev with
      | Some q when q == p -> acc
      | Some _ | None -> acc + 1)
    next 0

let diff_view t view =
  let differing =
    IntMap.merge
      (fun _ live recorded ->
        match (live, recorded) with
        (* A record bound in a view is never written in place. *)
        | Some a, Some b when a == b -> None
        | _ ->
          Some
            ( Option.value live ~default:absent,
              Option.value recorded ~default:absent ))
      t.view view
  in
  IntMap.to_seq differing
  |> Seq.find_map (fun (key, (live, recorded)) ->
         let rec go i =
           if i = page_words then None
           else
             let l = cell_word live i and r = cell_word recorded i in
             if l <> r then Some ((key lsl page_bits) + (i * 4), r, l)
             else go (i + 1)
         in
         go 0)

let view_read_word view addr =
  let a = Word.to_unsigned addr in
  if a land 3 <> 0 then raise (Misaligned { addr; width = 4 });
  match IntMap.find_opt (a lsr page_bits) view with
  | None -> 0
  | Some p -> cell_word p ((a land offset_mask) lsr 2)

let iter_written t f =
  IntMap.iter
    (fun key _ ->
      Array.iteri
        (fun i v -> if v <> 0 then f ((key lsl page_bits) + (i * 4)) v)
        (page t key).arr)
    t.view
