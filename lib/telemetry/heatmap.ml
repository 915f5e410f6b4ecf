(* Address-space heatmap: per-page write/check/hit counters over the
   simulated sparse memory.  The page size comes in as [page_bits]
   (the machine layer passes its own — telemetry takes no dependency
   on it).  Cells live in a flat two-level table shaped like the
   machine's page directory, whose second levels are allocated on first
   touch, so an untouched address space costs one directory.  The
   interpreter's store bodies bump the write and check counts inline
   ({!Cpu.heat_install}).  All renders walk pages in ascending order,
   so every export is deterministic. *)

type cell = {
  writes : int;   (* store instructions landing in the page *)
  checks : int;   (* instrumented check executions *)
  hits : int;     (* monitored-region hits *)
  monitored : bool;
}

type t = { page_bits : int; key_mask : int; dir : int array array }

let l2_bits = 10
let l2_mask = (1 lsl l2_bits) - 1

(* A cell is four ints: writes, checks, hits, monitored (0 or 1). *)
let cell_bits = 2

let create ~page_bits () =
  (* Below 8 the directory, one entry per [1 lsl l2_bits] keys, would
     pass 32 768 entries. *)
  if page_bits < 8 || page_bits > 30 then
    invalid_arg "Heatmap.create: page_bits out of range";
  let key_bits = 33 - page_bits in
  {
    page_bits;
    key_mask = (1 lsl key_bits) - 1;
    dir = Array.make (1 lsl max 0 (key_bits - l2_bits)) [||];
  }

let page_bytes t = 1 lsl t.page_bits

let l2 t i =
  let l2 = t.dir.(i) in
  if Array.length l2 > 0 then l2
  else begin
    let l2 = Array.make (1 lsl (l2_bits + cell_bits)) 0 in
    t.dir.(i) <- l2;
    l2
  end

(* Apply [f] to field [k] of the cell of [addr]'s page. *)
let update t addr k f =
  let key = (addr lsr t.page_bits) land t.key_mask in
  let l2 = l2 t (key lsr l2_bits) and i = ((key land l2_mask) lsl cell_bits) + k in
  l2.(i) <- f l2.(i)

let record_write t addr = update t addr 0 succ
let record_check t addr = update t addr 1 succ
let record_hit t addr = update t addr 2 succ

let mark_monitored t ~lo ~hi =
  if hi >= lo then
    for page = lo lsr t.page_bits to hi lsr t.page_bits do
      update t (page lsl t.page_bits) 3 (fun _ -> 1)
    done

(* The page number [addr lsr page_bits] of the addresses with key
   [key]: a key in the upper half stands for a negative address, whose
   63-bit logical shift sets the bits above the key. *)
let page_of_key t key =
  if key lsr (32 - t.page_bits) = 0 then key
  else key + (1 lsl (63 - t.page_bits)) - (1 lsl (33 - t.page_bits))

(* The touched pages (a non-zero field) and their cells, in ascending
   page order (key order is page order): one pass for a render to read
   everything from. *)
let cells t =
  let acc = ref [] in
  for d = Array.length t.dir - 1 downto 0 do
    let l2 = t.dir.(d) in
    for j = (Array.length l2 lsr cell_bits) - 1 downto 0 do
      let i = j lsl cell_bits in
      let w = l2.(i) and c = l2.(i + 1) and h = l2.(i + 2) and m = l2.(i + 3) in
      if w lor c lor h lor m <> 0 then
        acc :=
          ( page_of_key t ((d lsl l2_bits) + j),
            { writes = w; checks = c; hits = h; monitored = m <> 0 } )
          :: !acc
    done
  done;
  !acc

let sum f cells = List.fold_left (fun acc (_, c) -> acc + f c) 0 cells
let n_pages t = List.length (cells t)
let total_writes t = sum (fun c -> c.writes) (cells t)
let total_checks t = sum (fun c -> c.checks) (cells t)
let total_hits t = sum (fun c -> c.hits) (cells t)

let never_fired_of cells =
  List.filter_map (fun (page, c) -> if c.monitored && c.hits = 0 then Some page else None) cells

let never_fired t = never_fired_of (cells t)

(* --- renders ------------------------------------------------------------------- *)

let schema_version = "dbp-heatmap/1"

let to_json t =
  let cells = cells t in
  Export.Obj
    [
      ("schema", Export.Str schema_version);
      ("page_bytes", Export.Int (page_bytes t));
      ("pages", Export.Int (List.length cells));
      ("total_writes", Export.Int (sum (fun c -> c.writes) cells));
      ("total_checks", Export.Int (sum (fun c -> c.checks) cells));
      ("total_hits", Export.Int (sum (fun c -> c.hits) cells));
      ( "cells",
        Export.List
          (List.map
             (fun (page, c) ->
               Export.Obj
                 [
                   ("page", Export.Int page);
                   ("addr", Export.Int (page lsl t.page_bits));
                   ("writes", Export.Int c.writes);
                   ("checks", Export.Int c.checks);
                   ("hits", Export.Int c.hits);
                   ("monitored", Export.Bool c.monitored);
                 ])
             cells) );
      ( "never_fired_pages",
        Export.List (List.map (fun p -> Export.Int p) (never_fired_of cells)) );
    ]

let to_json_string t = Export.json_to_string ~indent:1 (to_json t)

let to_text t =
  let cells = cells t in
  let b = Buffer.create 512 in
  let p fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  p "heatmap (%s): %d pages of %d bytes, writes=%d checks=%d hits=%d\n"
    schema_version (List.length cells) (page_bytes t)
    (sum (fun c -> c.writes) cells)
    (sum (fun c -> c.checks) cells)
    (sum (fun c -> c.hits) cells);
  p "  %-12s %-10s %-10s %-10s %s\n" "page" "writes" "checks" "hits" "flags";
  List.iter
    (fun (page, c) ->
      p "  0x%08x   %-10d %-10d %-10d %s%s\n" (page lsl t.page_bits)
        c.writes c.checks c.hits
        (if c.monitored then "monitored" else "")
        (if c.monitored && c.hits = 0 then " never-fired" else ""))
    cells;
  (match never_fired_of cells with
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
  let cells = cells t in
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
