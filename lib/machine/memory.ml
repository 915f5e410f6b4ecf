open Sparc

exception Misaligned of { addr : int; width : int }

let page_bits = 12
let page_words = 1 lsl (page_bits - 2)
let page_bytes = 1 lsl page_bits
let offset_mask = (1 lsl page_bits) - 1

module IntMap = Map.Make (Int)

type view = int array IntMap.t

(* A materialized page.  [gen] is the epoch in which [arr] was last
   (re)copied: when [gen < epoch] the array may be shared with one or
   more snapshot views and must be copied before the next write
   (copy-on-write). *)
type page = { mutable arr : int array; mutable gen : int }

type t = {
  pages : (int, page) Hashtbl.t;
  (* Single-slot page cache: the last page touched through the word
     paths.  Spatial locality makes almost every access hit the slot,
     so the common case is one integer compare instead of a [Hashtbl]
     probe (which also allocates a [Some] per hit).  [last_key] is
     [invalid_key] whenever [last_page] must not be trusted.

     COW invariant: the slot only ever holds arrays private to the
     current epoch ([gen = epoch]), so {!Cpu}'s inlined store fast path
     may write through it without a generation check. *)
  mutable last_key : int;
  mutable last_page : int array;
  mutable epoch : int;
  (* Persistent index of the live page arrays, maintained incrementally
     whenever a page's array identity changes (materialization or COW).
     [snapshot_cow] is then O(1): bump the epoch and hand out the
     current map. *)
  mutable view : view;
  mutable cow_copies : int;  (* cumulative pages copied by COW *)
}

let invalid_key = min_int
let no_page : int array = [||]

let create () =
  {
    pages = Hashtbl.create 1024;
    last_key = invalid_key;
    last_page = no_page;
    epoch = 1;
    view = IntMap.empty;
    cow_copies = 0;
  }

let page_of t addr =
  let key = Word.to_unsigned addr lsr page_bits in
  if key = t.last_key then t.last_page
  else
    match Hashtbl.find_opt t.pages key with
    | Some p ->
      if p.gen < t.epoch then begin
        (* Shared with a snapshot view: copy before the write the
           caller is about to perform. *)
        p.arr <- Array.copy p.arr;
        p.gen <- t.epoch;
        t.view <- IntMap.add key p.arr t.view;
        t.cow_copies <- t.cow_copies + 1
      end;
      t.last_key <- key;
      t.last_page <- p.arr;
      p.arr
    | None ->
      let arr = Array.make page_words 0 in
      Hashtbl.add t.pages key { arr; gen = t.epoch };
      t.view <- IntMap.add key arr t.view;
      t.last_key <- key;
      t.last_page <- arr;
      arr

let check_align addr width =
  if Word.to_unsigned addr land (width - 1) <> 0 then
    raise (Misaligned { addr; width })

let read_word t addr =
  let a = Word.to_unsigned addr in
  if a land 3 <> 0 then raise (Misaligned { addr; width = 4 });
  let key = a lsr page_bits in
  if key = t.last_key then Array.unsafe_get t.last_page ((a land offset_mask) lsr 2)
  else
    (* Reads of never-written pages return zero without allocating. *)
    match Hashtbl.find_opt t.pages key with
    | None -> 0
    | Some p ->
      (* Only private pages may enter the slot cache (COW invariant);
         reads of shared pages pay the Hashtbl probe until a write
         copies them into the current epoch. *)
      if p.gen = t.epoch then begin
        t.last_key <- key;
        t.last_page <- p.arr
      end;
      Array.unsafe_get p.arr ((a land offset_mask) lsr 2)

let write_word t addr v =
  let a = Word.to_unsigned addr in
  if a land 3 <> 0 then raise (Misaligned { addr; width = 4 });
  Array.unsafe_set (page_of t addr) ((a land offset_mask) lsr 2) (Word.norm v)

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
  (* From now on every resident page is shared with the returned view;
     the first write to each will copy it.  The slot cache may hold a
     page that was private a moment ago, so it must be dropped. *)
  t.epoch <- t.epoch + 1;
  t.last_key <- invalid_key;
  t.last_page <- no_page;
  t.view

let restore_cow t view =
  Hashtbl.reset t.pages;
  IntMap.iter
    (* [gen = 0 < epoch]: the restored arrays still belong to the
       snapshot; the first write to each page copies it out. *)
    (fun key arr -> Hashtbl.replace t.pages key { arr; gen = 0 })
    view;
  t.view <- view;
  t.epoch <- t.epoch + 1;
  t.last_key <- invalid_key;
  t.last_page <- no_page

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

(* Never written: stands in for a page one side has not materialized. *)
let zero_page = Array.make page_words 0

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

let allocated_words t =
  Hashtbl.length t.pages * page_words

let iter_written t f =
  Hashtbl.iter
    (fun key (p : page) ->
      Array.iteri
        (fun i v -> if v <> 0 then f ((key lsl page_bits) + (i * 4)) v)
        p.arr)
    t.pages

let iter_pages t f = Hashtbl.iter (fun key p -> f key p.arr) t.pages
