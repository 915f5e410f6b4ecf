(* Bounded checkpoint journal, keyed by executed-instruction count.

   Entries are appended in instruction order by the replay engine's
   interval policy (one checkpoint every [interval] instructions).
   Under a byte budget the journal thins itself exponentially: old
   history keeps sparse checkpoints, recent history keeps dense ones,
   so the expected re-execution distance to any target stays roughly
   proportional to the target's age — the classic checkpointing
   trade-off (Transition Watchpoints; Feldman & Brown's IGOR). *)

type entry = {
  snap : Snapshot.t;
  delta_pages : int;  (* pages captured fresh vs the previous *retained* entry *)
  shared_pages : int;  (* pages shared with that entry *)
  bytes : int;  (* attributed retention cost *)
}

(* One page-map walk per entry: the shared pages and the bytes both
   follow from the delta. *)
let entry ~prev snap =
  let delta_pages = Snapshot.delta_pages ~prev snap in
  {
    snap;
    delta_pages;
    shared_pages = Snapshot.pages snap - delta_pages;
    bytes = Snapshot.bytes_of_delta snap delta_pages;
  }

type t = {
  interval : int;
  budget_bytes : int option;
  mutable entries : entry list;  (* newest first *)
  mutable n : int;
  on_evict : Snapshot.t -> unit;
}

let create ?(on_evict = fun _ -> ()) ?budget_bytes ?(interval = 1) () =
  if interval <= 0 then invalid_arg "Journal.create: interval must be positive";
  (match budget_bytes with
  | Some b when b <= 0 -> invalid_arg "Journal.create: budget must be positive"
  | _ -> ());
  {
    interval;
    budget_bytes;
    entries = [];
    n = 0;
    on_evict;
  }

let interval t = t.interval
let length t = t.n

let retained_bytes t =
  List.fold_left (fun acc e -> acc + e.bytes) 0 t.entries

let entries t = List.rev t.entries
let snapshots t = List.rev_map (fun e -> e.snap) t.entries

(* Thinning: evict the interior entry whose removal creates the
   smallest gap *relative to its age*.  With gap_i = insn_{i+1} -
   insn_{i-1} and age_i = latest - insn_i, minimizing gap_i / age_i
   keeps the retained checkpoint density roughly proportional to 1/age
   — exponential thinning: recent history stays dense, old history gets
   sparse.  Scores are compared by integer cross-multiplication
   (gap_i * age_j vs gap_j * age_i), so eviction is exact and
   platform-independent; ties break toward the oldest capture
   (smallest {!Snapshot.seq}).  The first and last entries are never
   evicted. *)
let pick_victim arr =
  let n = Array.length arr in
  if n < 3 then None
  else begin
    let latest = Snapshot.insn arr.(n - 1).snap in
    let gap i =
      Snapshot.insn arr.(i + 1).snap - Snapshot.insn arr.(i - 1).snap
    in
    let age i = max 1 (latest - Snapshot.insn arr.(i).snap) in
    let best = ref 1 in
    for i = 2 to n - 2 do
      let better =
        let gi = gap i and ai = age i in
        let gb = gap !best and ab = age !best in
        let cmp = compare (gi * ab) (gb * ai) in
        cmp < 0
        || (cmp = 0 && Snapshot.seq arr.(i).snap < Snapshot.seq arr.(!best).snap)
      in
      if better then best := i
    done;
    Some !best
  end

let evict_one t =
  let arr = Sparc.Arr.of_list (entries t) in
  match pick_victim arr with
  | None -> false
  | Some idx ->
    let victim = arr.(idx) in
    (* The victim's neighbours now bound a wider gap; the successor's
       retention cost is re-derived against its new predecessor, so
       pages the victim shared with both neighbours stay counted once
       and pages only the victim held drop off the books — exactly
       mirroring what the garbage collector reclaims.  The successor's
       window now also covers the victim's, and so do its stores. *)
    let pred = arr.(idx - 1) and succ = arr.(idx + 1) in
    Snapshot.absorb succ.snap ~victim:victim.snap;
    arr.(idx + 1) <- entry ~prev:(Some pred.snap) succ.snap;
    t.entries <-
      List.rev (List.filteri (fun i _ -> i <> idx) (Array.to_list arr));
    t.n <- t.n - 1;
    t.on_evict victim.snap;
    true

let record t snap =
  (match t.entries with
  | prev :: _ when Snapshot.insn prev.snap > Snapshot.insn snap ->
    invalid_arg "Journal.record: instruction counts must be non-decreasing"
  | _ -> ());
  let prev = match t.entries with e :: _ -> Some e.snap | [] -> None in
  let e = entry ~prev snap in
  t.entries <- e :: t.entries;
  t.n <- t.n + 1;
  (match t.budget_bytes with
  | None -> ()
  | Some budget ->
    let continue = ref (retained_bytes t > budget) in
    while !continue do
      if evict_one t then continue := retained_bytes t > budget
      else continue := false
    done);
  e

let nearest t ~insn =
  (* Latest retained snapshot at or before [insn]; entries are newest
     first, so the first qualifying hit wins. *)
  let rec go = function
    | [] -> None
    | e :: rest ->
      if Snapshot.insn e.snap <= insn then Some e.snap else go rest
  in
  go t.entries

let find t ~insn =
  let rec go = function
    | [] -> None
    | e :: rest -> if Snapshot.insn e.snap = insn then Some e.snap else go rest
  in
  go t.entries
