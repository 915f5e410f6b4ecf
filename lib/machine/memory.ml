open Sparc

exception Misaligned of { addr : int; width : int }

let page_bits = 12
let page_words = 1 lsl (page_bits - 2)
let page_bytes = 1 lsl page_bits
let offset_mask = (1 lsl page_bits) - 1
let l2_bits = 10
let l2_mask = (1 lsl l2_bits) - 1

module IntMap = Map.Make (Int)

type view = int array IntMap.t

(* A mapped page.  [gen] is the epoch in which [arr] was last
   (re)copied: when [gen < epoch] the array may be shared with one or
   more snapshot views and must be copied before the next write
   (copy-on-write). *)
type page = { mutable arr : int array; mutable gen : int }

type t = {
  (* Two-level page table over the 20-bit page key: [dir.(key lsr 10)]
     is a second level and its slot [key land 1023] the page.  Unmapped
     pages are the shared [absent] page and empty second levels the
     shared [absent_l2], so finding a page is plain indexing: no
     compare, no hash, no allocation. *)
  dir : page array array;
  mutable epoch : int;
  (* Persistent index of the mapped page arrays, maintained incrementally
     whenever a page's array identity changes (materialization or COW).
     [snapshot_cow] is then O(1): bump the epoch and hand out the
     current map. *)
  mutable view : view;
  mutable cow_copies : int;  (* cumulative pages copied by COW *)
}

(* Never written: the contents of every unmapped page, and of a page
   one side of a diff has not materialized.  [gen = -1] never equals an
   epoch, so a write to [absent] always goes through [writable]. *)
let zero_page = Array.make page_words 0
let absent = { arr = zero_page; gen = -1 }
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

let writable t key =
  let p = page t key in
  let arr =
    if p == absent then begin
      let arr = Array.make page_words 0 in
      set_page t key { arr; gen = t.epoch };
      arr
    end
    else begin
      (* Shared with a snapshot view: copy before the write the caller
         is about to perform. *)
      let arr = Array.copy p.arr in
      p.arr <- arr;
      p.gen <- t.epoch;
      t.cow_copies <- t.cow_copies + 1;
      arr
    end
  in
  t.view <- IntMap.add key arr t.view;
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
     the first write to each will copy it. *)
  t.epoch <- t.epoch + 1;
  t.view

let restore_cow t view =
  IntMap.iter (fun key _ -> set_page t key absent) t.view;
  IntMap.iter
    (* [gen = 0 < epoch]: the restored arrays still belong to the
       snapshot; the first write to each page copies it out. *)
    (fun key arr -> set_page t key { arr; gen = 0 })
    view;
  t.view <- view;
  t.epoch <- t.epoch + 1
let epoch t = t.epoch
let cow_copies t = t.cow_copies
let view_pages v = IntMap.cardinal v
let view_bytes v = IntMap.cardinal v * page_bytes

let view_diff prev next =
  (* Pages physically differing between two adjacent views: present in
     [next] with a different (or no) binding in [prev].  With [prev] the
     previous checkpoint's view this counts exactly the pages captured
     fresh by [next] — the O(dirty) cost of the checkpoint. *)
  IntMap.fold
    (fun key arr acc ->
      match IntMap.find_opt key prev with
      | Some prev_arr when prev_arr == arr -> acc
      | Some _ | None -> acc + 1)
    next 0

let diff_view t view =
  let differing =
    IntMap.merge
      (fun _ live recorded ->
        match (live, recorded) with
        (* A page shared with a view is never written in place. *)
        | Some a, Some b when a == b -> None
        | _ ->
          Some
            ( Option.value live ~default:zero_page,
              Option.value recorded ~default:zero_page ))
      t.view view
  in
  IntMap.to_seq differing
  |> Seq.find_map (fun (key, (live, recorded)) ->
         let rec go i =
           if i = page_words then None
           else if live.(i) <> recorded.(i) then
             Some ((key lsl page_bits) + (i * 4), recorded.(i), live.(i))
           else go (i + 1)
         in
         go 0)

let view_read_word view addr =
  let a = Word.to_unsigned addr in
  if a land 3 <> 0 then raise (Misaligned { addr; width = 4 });
  match IntMap.find_opt (a lsr page_bits) view with
  | None -> 0
  | Some arr -> Array.unsafe_get arr ((a land offset_mask) lsr 2)

let iter_view view f = IntMap.iter f view

let iter_written t f =
  IntMap.iter
    (fun key arr ->
      Array.iteri
        (fun i v -> if v <> 0 then f ((key lsl page_bits) + (i * 4)) v)
        arr)
    t.view
