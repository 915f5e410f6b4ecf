exception Invalid of string

type kind = User | Internal

type t = { lo : int; hi : int; kind : kind }
(* [lo, hi] inclusive byte range; both word-aligned bounds with
   hi = lo + 4k - 1. *)

let v ?(kind = User) ~addr ~size_bytes () =
  if addr land 3 <> 0 then raise (Invalid "region address not word aligned");
  if size_bytes <= 0 || size_bytes land 3 <> 0 then
    raise (Invalid "region size not a positive word multiple");
  { lo = Sparc.Word.to_unsigned addr; hi = Sparc.Word.to_unsigned addr + size_bytes - 1; kind }

let size_bytes t = t.hi - t.lo + 1

let overlaps a b = a.lo <= b.hi && b.lo <= a.hi

let contains t addr =
  let addr = Sparc.Word.to_unsigned addr in
  t.lo <= addr && addr <= t.hi

let equal a b = a.lo = b.lo && a.hi = b.hi && a.kind = b.kind

(* A set of non-overlapping regions, ordered by [lo].  The tree is the
   OCaml-side mirror of the in-memory bitmap; range queries here stand
   in for the paper's three-access range-check structure (§4.3). *)
module Set_ = Map.Make (Int)

type set = t Set_.t

let empty = Set_.empty

let add set region =
  let conflict =
    Set_.exists (fun _ r -> overlaps r region) set
  in
  if conflict then raise (Invalid "regions must not overlap");
  Set_.add region.lo region set

let remove set region =
  match Set_.find_opt region.lo set with
  | Some r when equal r region -> Set_.remove region.lo set
  | Some _ | None -> raise (Invalid "no such region")

let find_containing set addr =
  let addr = Sparc.Word.to_unsigned addr in
  match Set_.find_last_opt (fun lo -> lo <= addr) set with
  | Some (_, r) when contains r addr -> Some r
  | Some _ | None -> None

let intersects_range set ~lo ~hi =
  let lo = Sparc.Word.to_unsigned lo and hi = Sparc.Word.to_unsigned hi in
  (* Any region with r.lo <= hi and r.hi >= lo. *)
  match Set_.find_last_opt (fun rlo -> rlo <= hi) set with
  | Some (_, r) -> r.hi >= lo
  | None -> false

let iter f set = Set_.iter (fun _ r -> f r) set

let elements set = List.map snd (Set_.bindings set)
