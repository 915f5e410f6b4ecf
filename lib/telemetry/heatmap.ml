(* Address-space heatmap: per-page write/check/hit counters over the
   simulated sparse memory.  The page size comes in as [page_bits]
   (the machine layer passes its own — telemetry takes no dependency
   on it); pages materialize on first touch, so an untouched address
   space costs nothing.  All renders sort by page index, making every
   export deterministic regardless of hash-table iteration order. *)

type cell = {
  mutable writes : int;   (* store instructions landing in the page *)
  mutable checks : int;   (* instrumented check executions *)
  mutable hits : int;     (* monitored-region hits *)
  mutable monitored : bool;
}

type t = {
  page_bits : int;
  pages : (int, cell) Hashtbl.t;
  (* Lookup cache in front of [pages]: the recorder sits on the
     interpreter's store path, and stores alternate between a few hot
     pages (stack, data, shadow stack; 3-11 per SPEC program), which a
     one-entry cache missed on 40% of stores.  A hit is two loads and
     a compare of the full page number.  [-1] marks an empty slot. *)
  slot_page : int array;
  slot_cell : cell array;
}

(* 16 slots indexed by the top bits of [page * golden] (Fibonacci
   hashing): low-bit indexing maps data page 0x400 and the
   shadow-stack page at 0xB0000000 to one slot.  With this index every
   SPEC program's store stream misses only on a page's first store. *)
let slot_bits = 4
let golden = 0x4F1B_BCDC_BFA5_3E0B (* 2^63 / phi, odd; wraps to negative *)
let slot_of page = (page * golden) lsr (Sys.int_size - slot_bits)

let dummy_cell () = { writes = 0; checks = 0; hits = 0; monitored = false }

let create ~page_bits () =
  if page_bits < 1 || page_bits > 30 then
    invalid_arg "Heatmap.create: page_bits out of range";
  {
    page_bits;
    pages = Hashtbl.create 64;
    slot_page = Array.make (1 lsl slot_bits) (-1);
    slot_cell = Array.make (1 lsl slot_bits) (dummy_cell ());
  }

let page_bytes t = 1 lsl t.page_bits

let cell t addr =
  let page = addr lsr t.page_bits in
  let slot = slot_of page in
  if Array.unsafe_get t.slot_page slot = page then Array.unsafe_get t.slot_cell slot
  else begin
    let c =
      match Hashtbl.find_opt t.pages page with
      | Some c -> c
      | None ->
        let c = dummy_cell () in
        Hashtbl.add t.pages page c;
        c
    in
    t.slot_page.(slot) <- page;
    t.slot_cell.(slot) <- c;
    c
  end

let record_write t addr =
  let c = cell t addr in
  c.writes <- c.writes + 1

let record_check t addr =
  let c = cell t addr in
  c.checks <- c.checks + 1

let record_hit t addr =
  let c = cell t addr in
  c.hits <- c.hits + 1

let mark_monitored t ~lo ~hi =
  if hi >= lo then
    for page = lo lsr t.page_bits to hi lsr t.page_bits do
      let c = cell t (page lsl t.page_bits) in
      c.monitored <- true
    done

let n_pages t = Hashtbl.length t.pages

let fold f t acc =
  (* Sorted page order: the deterministic spine of every render. *)
  Hashtbl.fold (fun page c acc -> (page, c) :: acc) t.pages []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.fold_left (fun acc (page, c) -> f acc page c) acc

let total_writes t = fold (fun acc _ c -> acc + c.writes) t 0
let total_checks t = fold (fun acc _ c -> acc + c.checks) t 0
let total_hits t = fold (fun acc _ c -> acc + c.hits) t 0

let never_fired t =
  fold
    (fun acc page c -> if c.monitored && c.hits = 0 then page :: acc else acc)
    t []
  |> List.rev

(* --- renders ------------------------------------------------------------------- *)

let schema_version = "dbp-heatmap/1"

let to_json t =
  Export.Obj
    [
      ("schema", Export.Str schema_version);
      ("page_bytes", Export.Int (page_bytes t));
      ("pages", Export.Int (n_pages t));
      ("total_writes", Export.Int (total_writes t));
      ("total_checks", Export.Int (total_checks t));
      ("total_hits", Export.Int (total_hits t));
      ( "cells",
        Export.List
          (List.rev
             (fold
                (fun acc page c ->
                  Export.Obj
                    [
                      ("page", Export.Int page);
                      ("addr", Export.Int (page lsl t.page_bits));
                      ("writes", Export.Int c.writes);
                      ("checks", Export.Int c.checks);
                      ("hits", Export.Int c.hits);
                      ("monitored", Export.Bool c.monitored);
                    ]
                  :: acc)
                t [])) );
      ( "never_fired_pages",
        Export.List (List.map (fun p -> Export.Int p) (never_fired t)) );
    ]

let to_json_string t = Export.json_to_string ~indent:1 (to_json t)

let to_text t =
  let b = Buffer.create 512 in
  let p fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  p "heatmap (%s): %d pages of %d bytes, writes=%d checks=%d hits=%d\n"
    schema_version (n_pages t) (page_bytes t) (total_writes t) (total_checks t)
    (total_hits t);
  p "  %-12s %-10s %-10s %-10s %s\n" "page" "writes" "checks" "hits" "flags";
  ignore
    (fold
       (fun () page c ->
         p "  0x%08x   %-10d %-10d %-10d %s%s\n" (page lsl t.page_bits)
           c.writes c.checks c.hits
           (if c.monitored then "monitored" else "")
           (if c.monitored && c.hits = 0 then " never-fired" else ""))
       t ());
  (match never_fired t with
  | [] -> ()
  | pages ->
    p "  monitored pages that never fired: %s\n"
      (String.concat ", "
         (List.map
            (fun page -> Printf.sprintf "0x%08x" (page lsl t.page_bits))
            pages)));
  Buffer.contents b

(* Plain-text PPM (P3): one pixel per touched page in sorted order,
   row-major over a near-square grid.  Channels scale linearly against
   the per-channel maximum: red = writes, green = checks, blue = hits.
   Integer arithmetic only, so the image is byte-stable. *)
let to_ppm t =
  let cells =
    List.rev (fold (fun acc page c -> (page, c) :: acc) t [])
  in
  let n = List.length cells in
  let width =
    let rec grow w = if w * w >= n then w else grow (w + 1) in
    if n = 0 then 1 else grow 1
  in
  let height = if n = 0 then 1 else (n + width - 1) / width in
  let maxw = List.fold_left (fun a (_, c) -> max a c.writes) 0 cells in
  let maxc = List.fold_left (fun a (_, c) -> max a c.checks) 0 cells in
  let maxh = List.fold_left (fun a (_, c) -> max a c.hits) 0 cells in
  let scale v m = if m = 0 then 0 else 255 * v / m in
  let b = Buffer.create (32 + (n * 12)) in
  Buffer.add_string b (Printf.sprintf "P3\n%d %d\n255\n" width height);
  let emitted = ref 0 in
  List.iter
    (fun (_, c) ->
      Buffer.add_string b
        (Printf.sprintf "%d %d %d\n" (scale c.writes maxw)
           (scale c.checks maxc) (scale c.hits maxh));
      incr emitted)
    cells;
  (* Pad the final row so the raster matches the header. *)
  for _ = !emitted + 1 to width * height do
    Buffer.add_string b "0 0 0\n"
  done;
  Buffer.contents b
