open Machine

exception Invalid of string

type kind = User | Internal

type t = { lo : int; hi : int; kind : kind }
(* [lo, hi] inclusive byte range; both word-aligned bounds with
   hi = lo + 4k - 1. *)

let v ?(kind = User) ~addr ~size_bytes () =
  if addr land 3 <> 0 then raise (Invalid "region address not word aligned");
  if size_bytes <= 0 || size_bytes land 3 <> 0 then
    raise (Invalid "region size not a positive word multiple");
  let lo = Sparc.Word.to_unsigned addr in
  if lo + size_bytes - 1 > 0xFFFF_FFFF then
    raise (Invalid "region past the end of the address space");
  { lo; hi = lo + size_bytes - 1; kind }

let size_bytes t = t.hi - t.lo + 1

let contains t addr =
  let addr = Sparc.Word.to_unsigned addr in
  t.lo <= addr && addr <= t.hi

let equal a b = a.lo = b.lo && a.hi = b.hi && a.kind = b.kind

(* --- the region table ------------------------------------------------------ *)

(* Unordered four-word entries ({!Layout.region_table}): lo, hi, owner
   and %fp.  The owner is 0 for a user region, 1 for one of the MRS's
   own and loop id + 2 for an alias home a loop pre-header created in
   the frame at %fp.  Deletion moves the last entry into the hole and
   zeroes the vacated one, so every word past the live entries stays 0. *)
let slot i k =
  (4 * k)
  + if i < Layout.region_inline then Layout.region_table + (16 * i)
    else Layout.region_overflow + (16 * (i - Layout.region_inline))

let get mem i k = Sparc.Word.to_unsigned (Memory.read_word mem (slot i k))
let count mem = Sparc.Word.to_unsigned (Memory.read_word mem Layout.region_count)
let at mem i = { lo = get mem i 0; hi = get mem i 1; kind = (if get mem i 2 = 0 then User else Internal) }

(* Index of the lowest-addressed entry intersecting [lo, hi], or -1. *)
let first mem ~lo ~hi =
  let best = ref (-1) in
  for i = 0 to count mem - 1 do
    if get mem i 0 <= hi && lo <= get mem i 1 && (!best < 0 || get mem i 0 < get mem !best 0)
    then best := i
  done;
  !best

let find_in mem ~lo ~hi =
  match first mem ~lo:(Sparc.Word.to_unsigned lo) ~hi:(Sparc.Word.to_unsigned hi) with
  | -1 -> None
  | i -> Some (at mem i)

let find_containing mem addr = find_in mem ~lo:addr ~hi:addr
let intersects_range mem ~lo ~hi = find_in mem ~lo ~hi <> None

let add mem ?owner r =
  let n = count mem in
  if first mem ~lo:r.lo ~hi:r.hi >= 0 then raise (Invalid "regions must not overlap");
  if n >= Layout.region_capacity then raise (Invalid "region table full");
  let owner_word, fp =
    match (r.kind, owner) with
    | User, _ -> (0, 0)
    | Internal, None -> (1, 0)
    | Internal, Some (loop, fp) -> (loop + 2, fp)
  in
  List.iteri (fun k v -> Memory.write_word mem (slot n k) v) [ r.lo; r.hi; owner_word; fp ];
  Memory.write_word mem Layout.region_count (n + 1)

(* The indices of the entries [p] holds for, in table order. *)
let select mem p = List.filter p (List.init (count mem) Fun.id)

let remove mem r =
  match select mem (fun i -> equal (at mem i) r) with
  | [] -> raise (Invalid "no such region")
  | i :: _ ->
    let last = count mem - 1 in
    for k = 0 to 3 do
      Memory.write_word mem (slot i k) (get mem last k);
      Memory.write_word mem (slot last k) 0
    done;
    Memory.write_word mem Layout.region_count last

let owner_loop mem r =
  match select mem (fun i -> equal (at mem i) r && get mem i 2 >= 2) with
  | i :: _ -> Some (get mem i 2 - 2)
  | [] -> None

let owned_by mem ~loop ~fp =
  let fp = Sparc.Word.to_unsigned fp in
  List.map (at mem) (select mem (fun i -> get mem i 2 = loop + 2 && get mem i 3 = fp))

let iter mem f = List.iter (fun i -> f (at mem i)) (select mem (fun _ -> true))
