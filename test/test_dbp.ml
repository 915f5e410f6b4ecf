open Dbp

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* The session registry's live value of one counter. *)
let count (s : Session.t) = Telemetry.current s.Session.telemetry

(* The five Table 1 variants, then the hash table. *)
let table1_strategies_and_hash =
  Strategy.
    [ Bitmap; Bitmap_inline; Bitmap_inline_registers; Cache; Cache_inline; Hash_table ]

(* --- region sets ----------------------------------------------------------- *)

let test_region_basics () =
  let r = Region.v ~addr:0x1000 ~size_bytes:8 () in
  check_int "size" 8 (Region.size_bytes r);
  check_bool "contains lo" true (Region.contains r 0x1000);
  check_bool "contains last byte" true (Region.contains r 0x1007);
  check_bool "not past end" false (Region.contains r 0x1008);
  Alcotest.check_raises "misaligned" (Region.Invalid "region address not word aligned")
    (fun () -> ignore (Region.v ~addr:0x1002 ~size_bytes:4 ()));
  Alcotest.check_raises "bad size" (Region.Invalid "region size not a positive word multiple")
    (fun () -> ignore (Region.v ~addr:0x1000 ~size_bytes:6 ()))

(* The region table lives in simulated memory: every operation reads
   and writes words at [Layout.region_table], and a fresh memory is an
   empty table. *)
let test_region_set () =
  let mem = Machine.Memory.create () in
  let r1 = Region.v ~addr:0x1000 ~size_bytes:4 () in
  let r2 = Region.v ~addr:0x2000 ~size_bytes:16 () in
  Region.add mem r1;
  Region.add mem r2;
  let elements () =
    let acc = ref [] in
    Region.iter mem (fun r -> acc := r :: !acc);
    !acc
  in
  check_int "elements" 2 (List.length (elements ()));
  (match Region.find_containing mem 0x2008 with
  | Some r -> check_bool "found r2" true (Region.equal r r2)
  | None -> Alcotest.fail "lookup failed");
  check_bool "no hit" true (Region.find_containing mem 0x1800 = None);
  check_bool "range intersect" true (Region.intersects_range mem ~lo:0x1F00 ~hi:0x2003);
  check_bool "range miss" false (Region.intersects_range mem ~lo:0x1004 ~hi:0x1FFF);
  (match Region.find_in mem ~lo:0x0 ~hi:0x3000 with
  | Some r -> check_bool "lowest of two" true (Region.equal r r1)
  | None -> Alcotest.fail "range lookup failed");
  (try
     Region.add mem (Region.v ~addr:0x2004 ~size_bytes:4 ());
     Alcotest.fail "overlap accepted"
   with Region.Invalid _ -> ());
  let alias = Region.v ~kind:Region.Internal ~addr:0x3000 ~size_bytes:4 () in
  Region.add mem ~owner:(7, 0x7fff_fe00) alias;
  check_bool "owner recorded" true (Region.owner_loop mem alias = Some 7);
  check_bool "user region has no owner" true (Region.owner_loop mem r2 = None);
  check_int "owned in that frame" 1
    (List.length (Region.owned_by mem ~loop:7 ~fp:0x7fff_fe00));
  check_int "not in another frame" 0
    (List.length (Region.owned_by mem ~loop:7 ~fp:0x7fff_fd00));
  Region.remove mem r1;
  check_bool "removed" true (Region.find_containing mem 0x1000 = None);
  check_int "others kept" 2 (List.length (elements ()));
  Region.remove mem alias;
  Region.remove mem r2;
  (* An emptied table is all zeros again, like fresh memory. *)
  for i = 0 to 11 do
    check_int "zeroed" 0
      (Machine.Memory.read_word mem (Layout.region_count + (4 * i)))
  done

(* --- segmented bitmap --------------------------------------------------------- *)

let test_segbitmap_basic () =
  let layout = Layout.v () in
  let mem = Machine.Memory.create () in
  let bm = Segbitmap.create layout mem in
  let r = Region.v ~addr:0x40_0000 ~size_bytes:12 () in
  check_bool "initially unmonitored" false (Segbitmap.monitored bm 0x40_0000);
  Segbitmap.add_region bm r;
  check_bool "lo monitored" true (Segbitmap.monitored bm 0x40_0000);
  check_bool "mid monitored" true (Segbitmap.monitored bm 0x40_0004);
  check_bool "hi monitored" true (Segbitmap.monitored bm 0x40_0008);
  check_bool "past end" false (Segbitmap.monitored bm 0x40_000C);
  check_bool "segment flagged" true (Segbitmap.segment_monitored bm 0x40_0000);
  Segbitmap.remove_region bm r;
  check_bool "cleared" false (Segbitmap.monitored bm 0x40_0004);
  check_bool "segment unflagged" false (Segbitmap.segment_monitored bm 0x40_0000)

let test_segbitmap_byte_addresses () =
  let layout = Layout.v () in
  let bm = Segbitmap.create layout (Machine.Memory.create ()) in
  Segbitmap.add_region bm (Region.v ~addr:0x40_0000 ~size_bytes:4 ());
  (* Any byte of the word maps to the same bit. *)
  check_bool "byte 1" true (Segbitmap.monitored bm 0x40_0001);
  check_bool "byte 3" true (Segbitmap.monitored bm 0x40_0003)

let test_segbitmap_cross_segment () =
  let layout = Layout.v () in
  let bm = Segbitmap.create layout (Machine.Memory.create ()) in
  (* Region spanning a 512-byte segment boundary. *)
  let r = Region.v ~addr:0x40_01FC ~size_bytes:8 () in
  Segbitmap.add_region bm r;
  check_bool "last word of seg" true (Segbitmap.monitored bm 0x40_01FC);
  check_bool "first word of next" true (Segbitmap.monitored bm 0x40_0200);
  check_bool "both segments flagged" true
    (Segbitmap.segment_monitored bm 0x40_01FC
    && Segbitmap.segment_monitored bm 0x40_0200)

(* Segment-boundary edges of the 128-word (512-byte) default segment:
   the first and last word of a segment flip only their own bit, a
   monitored doubleword straddling two segments marks one word in
   each, and the "segment has monitored words" flag really is packed
   into the low bit of the table entry (the pointer bits survive flag
   churn). *)
let test_segbitmap_segment_edges () =
  let layout = Layout.v () in
  let mem = Machine.Memory.create () in
  let bm = Segbitmap.create layout mem in
  let seg_bytes = 1 lsl layout.Layout.seg_bits in
  check_int "default segment is 128 words" 128 (Layout.segment_words layout);
  let seg_start = 0x40_0000 in
  let last_word = seg_start + seg_bytes - 4 in
  (* First word of the segment: neighbours stay clear. *)
  let r_first = Region.v ~addr:seg_start ~size_bytes:4 () in
  Segbitmap.add_region bm r_first;
  check_bool "first word set" true (Segbitmap.monitored bm seg_start);
  check_bool "second word clear" false (Segbitmap.monitored bm (seg_start + 4));
  check_bool "previous segment's last word clear" false
    (Segbitmap.monitored bm (seg_start - 4));
  (* Last word of the segment: the next segment is untouched. *)
  let r_last = Region.v ~addr:last_word ~size_bytes:4 () in
  Segbitmap.add_region bm r_last;
  check_bool "last word set" true (Segbitmap.monitored bm last_word);
  check_bool "word 126 clear" false (Segbitmap.monitored bm (last_word - 4));
  check_bool "next segment start clear" false
    (Segbitmap.monitored bm (last_word + 4));
  check_bool "next segment unflagged" false
    (Segbitmap.segment_monitored bm (last_word + 4));
  (* Doubleword straddling two segments: one word in each. *)
  let straddle_lo = seg_start + (2 * seg_bytes) - 4 in
  let r_dw = Region.v ~addr:straddle_lo ~size_bytes:8 () in
  Segbitmap.add_region bm r_dw;
  check_bool "straddle low half" true (Segbitmap.monitored bm straddle_lo);
  check_bool "straddle high half" true (Segbitmap.monitored bm (straddle_lo + 4));
  check_bool "straddle flags both segments" true
    (Segbitmap.segment_monitored bm straddle_lo
    && Segbitmap.segment_monitored bm (straddle_lo + 4));
  (* The monitored flag is the low bit of the packed table entry;
     clearing the last monitored word clears the flag but leaves the
     segment pointer allocated (§3.1's no-initialization trick works
     because a zero entry reads as unmonitored). *)
  let entry () =
    Sparc.Word.to_unsigned
      (Machine.Memory.read_word mem (Layout.table_entry_addr layout seg_start))
  in
  let flagged = entry () in
  check_bool "low bit set while monitored" true (flagged land 1 = 1);
  check_bool "pointer bits present" true (flagged land lnot 1 <> 0);
  Segbitmap.remove_region bm r_first;
  check_bool "still flagged (last word remains)" true (entry () land 1 = 1);
  Segbitmap.remove_region bm r_last;
  let unflagged = entry () in
  check_bool "low bit cleared when empty" true (unflagged land 1 = 0);
  check_int "pointer bits preserved across flag churn"
    (flagged land lnot 1) (unflagged land lnot 1);
  check_bool "segment_monitored mirrors the bit" false
    (Segbitmap.segment_monitored bm seg_start)

(* A segment's flag is "its bitmap has a set bit", read from simulated
   memory, so restoring memory restores it with the bits: no host-side
   count survives a rollback to go out of step. *)
let test_segbitmap_restore () =
  let layout = Layout.v () in
  let mem = Machine.Memory.create () in
  let bm = Segbitmap.create layout mem in
  let seg = 0x40_0000 in
  let agree what =
    let has_bit =
      List.exists
        (fun w -> Segbitmap.monitored bm (seg + (4 * w)))
        (List.init (Layout.segment_words layout) Fun.id)
    in
    check_bool what has_bit (Segbitmap.segment_monitored bm seg)
  in
  let r1 = Region.v ~addr:seg ~size_bytes:8 ()
  and r2 = Region.v ~addr:(seg + 16) ~size_bytes:4 () in
  let empty = Machine.Memory.snapshot_cow mem in
  Segbitmap.add_region bm r1;
  agree "after add";
  let one = Machine.Memory.snapshot_cow mem in
  Machine.Memory.restore_cow mem empty;
  agree "restored to empty";
  Segbitmap.add_region bm r2;
  agree "add after restore";
  Segbitmap.remove_region bm r2;
  agree "remove after restore";
  check_int "no words monitored" 0 (Segbitmap.monitored_words bm);
  Machine.Memory.restore_cow mem one;
  agree "restored to one region";
  check_int "its two words monitored" 2 (Segbitmap.monitored_words bm);
  Segbitmap.remove_region bm r1;
  agree "removed";
  check_int "none left" 0 (Segbitmap.monitored_words bm)

let prop_segbitmap_matches_model =
  QCheck.Test.make ~name:"segmented bitmap agrees with a naive model" ~count:100
    QCheck.(
      pair
        (small_list (pair (int_range 0 2000) (int_range 1 8)))
        (small_list (int_range 0 9000)))
    (fun (region_specs, queries) ->
      let layout = Layout.v () in
      let bm = Segbitmap.create layout (Machine.Memory.create ()) in
      let model = Hashtbl.create 64 in
      let base = 0x40_0000 in
      (* Build non-overlapping regions from slot indices. *)
      let used = Hashtbl.create 64 in
      let regions =
        List.filter_map
          (fun (slot, words) ->
            let addr = base + (slot * 64) in
            if words * 4 <= 64 && not (Hashtbl.mem used slot) then begin
              Hashtbl.replace used slot ();
              Some (Region.v ~addr ~size_bytes:(words * 4) ())
            end
            else None)
          region_specs
      in
      List.iter
        (fun (r : Region.t) ->
          Segbitmap.add_region bm r;
          let rec mark a = if a <= r.hi then (Hashtbl.replace model (a lsr 2) (); mark (a + 4)) in
          mark r.lo)
        regions;
      (* Remove every other region. *)
      List.iteri
        (fun i (r : Region.t) ->
          if i mod 2 = 0 then begin
            Segbitmap.remove_region bm r;
            let rec unmark a =
              if a <= r.hi then (Hashtbl.remove model (a lsr 2); unmark (a + 4))
            in
            unmark r.lo
          end)
        regions;
      List.for_all
        (fun q ->
          let addr = base + (q * 4) in
          Segbitmap.monitored bm addr = Hashtbl.mem model (addr lsr 2))
        queries)

(* --- write types ------------------------------------------------------------ *)

let classify_stores ?(fortran_idiom = false) src =
  let out = Minic.Compile.compile src in
  let items = Array.of_list out.Minic.Codegen.program.text in
  let types = ref [] in
  Array.iteri
    (fun idx item ->
      match item with
      | Sparc.Asm.Insn (Sparc.Insn.St _) ->
        types := Write_type.classify ~fortran_idiom items idx :: !types
      | _ -> ())
    items;
  List.rev !types

let test_write_types () =
  (* Local scalar writes: STACK. *)
  let types = classify_stores "int main() { int x; x = 1; return x; }" in
  check_bool "stack write present" true (List.mem Write_type.Stack types);
  (* Global scalar: BSS. *)
  let types = classify_stores "int g; int main() { g = 1; return g; }" in
  check_bool "bss write present" true (List.mem Write_type.Bss types);
  (* Global array with register index: BSS-VAR for FORTRAN-class. *)
  let src =
    "int a[10]; int main() { register int i; for (i = 0; i < 10; i = i + 1) \
     { a[i] = i; } return 0; }"
  in
  let types = classify_stores ~fortran_idiom:true src in
  check_bool "bss-var present" true (List.mem Write_type.Bss_var types);
  let types = classify_stores ~fortran_idiom:false src in
  check_bool "degrades to heap for C" true
    ((not (List.mem Write_type.Bss_var types)) && List.mem Write_type.Heap types);
  (* Pointer write: HEAP. *)
  let types =
    classify_stores
      "int main() { int *p; p = malloc(8); *p = 1; return *p; }"
  in
  check_bool "heap present" true (List.mem Write_type.Heap types)

(* --- end-to-end helpers ---------------------------------------------------------- *)

let options ?(strategy = Strategy.Bitmap_inline_registers) ?(opt = Instrument.O0)
    ?(check_aliases = false) () =
  { Instrument.default_options with strategy; opt; check_aliases }

let run_plain src =
  let code, out = Minic.Compile.run ~fuel:20_000_000 src in
  (code, out)

let run_session ?options:(o = options ()) ?watch ?(fuel = 20_000_000) src =
  let session = Session.create ~options:o src in
  Session.install_oracle session;
  let dbg = Debugger.create session in
  let watches = Option.map (fun f -> f dbg) watch in
  let code, out = Session.run ~fuel session in
  (session, dbg, watches, code, out)

let semantics_programs =
  [
    "int main() { return 42; }";
    "int g; int main() { int i; for (i = 0; i < 50; i = i + 1) { g = g + i; \
     } return g % 256; }";
    "int a[32]; int main() { register int i; int s; for (i = 0; i < 32; i = \
     i + 1) { a[i] = i * i; } s = 0; for (i = 0; i < 32; i = i + 1) { s = s \
     + a[i]; } return s % 251; }";
    "struct node { int v; struct node *next; }; int main() { struct node *h; \
     struct node *n; int i; int s; h = 0; for (i = 1; i <= 8; i = i + 1) { n \
     = malloc(8); n->v = i; n->next = h; h = n; } s = 0; n = h; while (n != \
     0) { s = s + n->v; n = n->next; } return s; }";
    "int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - \
     2); } int main() { return fib(12); }";
  ]

let all_option_sets =
  List.concat_map
    (fun strategy ->
      [ options ~strategy (); options ~strategy ~opt:Instrument.O_symbol () ])
    table1_strategies_and_hash
  @ [
      options ~opt:Instrument.O_full ();
      options ~strategy:Strategy.Cache ~opt:Instrument.O_full ();
      options ~opt:Instrument.O_full ~check_aliases:true ();
    ]

(* Instrumentation must never change program behaviour. *)
let test_semantics_preserved () =
  List.iter
    (fun src ->
      let expect_code, expect_out = run_plain src in
      List.iter
        (fun o ->
          let _, _, _, code, out = run_session ~options:o src in
          check_int ("exit: " ^ Strategy.to_string o.Instrument.strategy) expect_code code;
          Alcotest.(check string) "output" expect_out out)
        all_option_sets)
    semantics_programs

(* And with monitoring armed on a heavily-written global, behaviour is
   still unchanged and every write is caught. *)
let watched_src =
  "int g; int main() { int i; for (i = 0; i < 25; i = i + 1) { g = g + 2; } \
   return g; }"

let test_hits_all_strategies () =
  List.iter
    (fun o ->
      let session, _, _, code, _ =
        run_session ~options:o ~watch:(fun dbg -> Debugger.watch dbg "g") watched_src
      in
      check_int ("exit " ^ Strategy.to_string o.Instrument.strategy) 50 code;
      let c = count session in
      check_int
        ("hits with " ^ Strategy.to_string o.Instrument.strategy
        ^ (match o.Instrument.opt with
          | Instrument.O0 -> "/O0"
          | Instrument.O_symbol -> "/sym"
          | Instrument.O_full -> "/full"))
        25 (c Telemetry.User_hits);
      check_int "oracle: no missed hits" 0 (Session.missed_hits session))
    all_option_sets

(* The session's one store table: every site and patch-stub pc maps to
   its plan write type and every other pc to nothing, the first and
   last store pcs and the pcs just outside the text included; and the
   oracle that reads it still sees every monitored store, for every
   strategy. *)
let store_table_src =
  "int g; int a[16]; int main() { int i; int *p; p = malloc(16); for (i = \
   0; i < 16; i = i + 1) { a[i] = i; g = g + 2; } p[1] = g; return (g + \
   p[1] + a[3]) % 256; }"

let test_store_table () =
  let expected_code, _ = run_plain store_table_src in
  let show = function None -> "none" | Some wt -> Write_type.to_string wt in
  List.iter
    (fun o ->
      let session, _, _, code, _ =
        run_session ~options:o
          ~watch:(fun dbg -> List.map (Debugger.watch dbg) [ "g"; "a" ])
          store_table_src
      in
      let name =
        Strategy.to_string o.Instrument.strategy
        ^
        match o.Instrument.opt with
        | Instrument.O0 -> "/O0"
        | Instrument.O_symbol -> "/sym"
        | Instrument.O_full -> "/full"
      in
      check_int ("exit " ^ name) expected_code code;
      check_bool ("oracle saw stores " ^ name) true
        (session.Session.expected_hits > 0);
      check_int ("oracle: no missed hits " ^ name) 0
        (Session.missed_hits session);
      let image = session.Session.image in
      let expected = Hashtbl.create 64 in
      List.iter
        (fun (s : Instrument.site) ->
          List.iter
            (fun label ->
              match Sparc.Assembler.addr_of_label image label with
              | Some a -> Hashtbl.replace expected a s.Instrument.write_type
              | None -> ())
            [ Instrument.site_label s.origin; Instrument.patch_label s.origin ])
        session.Session.plan.Instrument.sites;
      let types =
        List.sort_uniq compare (List.of_seq (Hashtbl.to_seq_values expected))
      in
      check_bool ("several write types " ^ name) true (List.length types >= 2);
      let base = image.Sparc.Assembler.text_base in
      let mismatches =
        List.filter_map
          (fun i ->
            let pc = base + (4 * i) in
            let want = show (Hashtbl.find_opt expected pc)
            and got = show (Instrument.store_type session.Session.sites pc) in
            if want = got then None
            else Some (Printf.sprintf "0x%x: want %s, got %s" pc want got))
          (List.init (Array.length image.Sparc.Assembler.text) Fun.id)
      in
      Alcotest.(check (list string)) ("store table " ^ name) [] mismatches;
      let pcs = List.of_seq (Hashtbl.to_seq_keys expected) in
      List.iter
        (fun pc ->
          Alcotest.(check string) (Printf.sprintf "store 0x%x %s" pc name)
            (show (Hashtbl.find_opt expected pc))
            (show (Instrument.store_type session.Session.sites pc)))
        [ List.fold_left min max_int pcs; List.fold_left max 0 pcs ];
      let text_end = base + (4 * Array.length image.Sparc.Assembler.text) in
      List.iter
        (fun pc ->
          Alcotest.(check string) (Printf.sprintf "pc 0x%x %s" pc name) "none"
            (show (Instrument.store_type session.Session.sites pc)))
        [ 0; base - 4; text_end; text_end + 4 ])
    (all_option_sets
    @ List.map
        (fun strategy -> options ~strategy ~opt:Instrument.O_full ())
        table1_strategies_and_hash)

(* The site map against a reference that reads the labels directly,
   the way each consumer resolved them before the map existed: on every
   text pc (and a few beyond either end), the function, the write and
   read sites a trap there is attributed to, and the store type agree,
   for every option set here, with read monitoring off and on. *)
let site_map_src =
  "int g; int a[16]; int *p; int bump(int x) { g = g + x; return g; } int \
   fill() { int i; for (i = 0; i < 16; i = i + 1) { a[i] = bump(i); } \
   return a[3]; } int main() { int i; int s; p = malloc(16); s = fill(); \
   for (i = 0; i < 4; i = i + 1) { p[i] = s + a[i]; s = s + p[i]; } return \
   s % 256; }"

let reference_site_map (session : Session.t) =
  let image = session.Session.image and plan = session.Session.plan in
  let addr = Sparc.Assembler.addr_of_label image in
  let text = image.Sparc.Assembler.text
  and base = image.Sparc.Assembler.text_base in
  let labelled label_of slot_of l =
    List.sort compare
      (List.filter_map
         (fun x -> Option.map (fun a -> (a, slot_of x)) (addr (label_of x)))
         l)
  in
  let site_slot (s : Instrument.site) = s.slot in
  let writes =
    List.sort compare
      (labelled (fun (s : Instrument.site) -> Instrument.site_label s.origin)
         site_slot plan.Instrument.sites
      @ labelled
          (fun (s : Instrument.site) -> Instrument.patch_label s.origin)
          site_slot plan.Instrument.sites)
  in
  let reads =
    labelled
      (fun (r : Instrument.read_site) -> Instrument.read_site_label r.r_origin)
      (fun (r : Instrument.read_site) -> r.r_slot)
      plan.Instrument.read_sites
  in
  let stores = Hashtbl.create 64 in
  List.iter
    (fun (s : Instrument.site) ->
      List.iter
        (fun l ->
          Option.iter (fun a -> Hashtbl.replace stores a s.write_type) (addr l))
        [ Instrument.site_label s.origin; Instrument.patch_label s.origin ])
    plan.Instrument.sites;
  let stubs =
    List.filter_map
      (fun (s : Instrument.site) ->
        match
          (addr (Instrument.patch_label s.origin), addr (Instrument.back_label s.origin))
        with
        | Some first, Some back ->
          let rec close k =
            if k >= Array.length text then None
            else
              match text.(k) with
              | Sparc.Insn.Branch { cond = Sparc.Cond.A; target = Sparc.Insn.Abs a }
                when a = back ->
                Some (base + (4 * k))
              | _ -> close (k + 1)
          in
          Option.map (fun last -> (first, last, s.fn)) (close ((first - base) / 4))
        | _ -> None)
      plan.Instrument.sites
  in
  let function_of_pc pc =
    match List.find_opt (fun (f, l, _) -> pc >= f && pc <= l) stubs with
    | Some (_, _, fn) -> Some fn
    | None ->
      let best = ref None in
      List.iter
        (fun f ->
          match addr f with
          | Some a when a <= pc -> (
            match !best with
            | Some (_, ba) when ba >= a -> ()
            | _ -> best := Some (f, a))
          | Some _ | None -> ())
        ("_start" :: plan.Instrument.functions);
      Option.map fst !best
  in
  let write_at pc =
    List.fold_left (fun acc (a, slot) -> if a <= pc then Some slot else acc) None writes
  and read_at pc = List.find_map (fun (a, slot) -> if a >= pc then Some slot else None) reads in
  (stubs <> [], reads <> [], fun pc ->
    (function_of_pc pc, write_at pc, read_at pc, Hashtbl.find_opt stores pc))

let test_site_map_reference () =
  let sets =
    all_option_sets
    @ List.map
        (fun strategy -> options ~strategy ~opt:Instrument.O_full ())
        table1_strategies_and_hash
  in
  let sets = sets @ List.map (fun o -> { o with Instrument.monitor_reads = true }) sets in
  let show (fn, w, r, wt) =
    Printf.sprintf "%s/%s/%s/%s"
      (Option.value ~default:"-" fn)
      (Option.fold ~none:"-" ~some:string_of_int w)
      (Option.fold ~none:"-" ~some:string_of_int r)
      (Option.fold ~none:"-" ~some:Write_type.to_string wt)
  in
  let saw_stubs = ref false and saw_reads = ref false in
  List.iter
    (fun (o : Instrument.options) ->
      let session = Session.create ~options:o site_map_src in
      let sites = session.Session.sites in
      let has_stubs, has_reads, reference = reference_site_map session in
      if has_stubs then saw_stubs := true;
      if has_reads then saw_reads := true;
      let image = session.Session.image in
      let base = image.Sparc.Assembler.text_base in
      let n = Array.length image.Sparc.Assembler.text in
      let got pc =
        ( Debugger.function_of_pc session pc,
          Option.map
            (fun (p : Instrument.placed) -> p.site.slot)
            (Instrument.write_site_at sites pc),
          Option.map
            (fun (r : Instrument.read_site) -> r.r_slot)
            (Instrument.read_site_at sites pc),
          Instrument.store_type session.Session.sites pc )
      in
      let mismatches =
        List.filter_map
          (fun k ->
            let pc = base + (4 * k) in
            let want = show (reference pc) and have = show (got pc) in
            if want = have then None
            else Some (Printf.sprintf "0x%x: want %s, got %s" pc want have))
          (List.init (n + 4) (fun k -> k - 2))
      in
      Alcotest.(check (list string))
        (Printf.sprintf "site map %s/%s%s%s"
           (Strategy.to_string o.strategy)
           (match o.opt with
           | Instrument.O0 -> "O0"
           | Instrument.O_symbol -> "sym"
           | Instrument.O_full -> "full")
           (if o.check_aliases then "/aliases" else "")
           (if o.monitor_reads then "/reads" else ""))
        [] mismatches)
    sets;
  check_bool "some option set has patch stubs" true !saw_stubs;
  check_bool "some option set has read sites" true !saw_reads

let test_disabled_no_hits () =
  (* Region exists but MRS disabled: no hits, and the disabled-flag
     guard keeps overhead small. *)
  let o = options () in
  let session = Session.create ~options:o watched_src in
  let dbg = Debugger.create session in
  let w = Debugger.watch dbg "g" in
  Mrs.disable session.Session.mrs;
  ignore w;
  let code, _ = Session.run session in
  check_int "exit" 50 code;
  check_int "no hits while disabled" 0 (count session Telemetry.User_hits)

let test_alias_writes_detected () =
  (* Writes through a pointer alias must be caught even with symbol
     optimization (the matched-store rewrite must not hide them). *)
  let src =
    "int g; int h; int main() { int *p; p = &g; *p = 7; p = &h; *p = 9; \
     return g + h; }"
  in
  List.iter
    (fun o ->
      let session, _, _, code, _ =
        run_session ~options:o ~watch:(fun dbg -> Debugger.watch dbg "g") src
      in
      check_int "exit" 16 code;
      check_int "alias write caught" 1
        (count session Telemetry.User_hits))
    [ options (); options ~opt:Instrument.O_symbol (); options ~opt:Instrument.O_full () ]

(* CI's matrix kernel: two alias-checked loops whose pre-headers cover
   frame locals ([init.i], [matmul.j]) with internal regions. *)
let ci_matrix_src =
  "int a[484]; int b[484]; int c[484];\n\
   int init() { int i; int v; v = 1;\n\
  \  for (i = 0; i < 484; i = i + 1) { a[i] = v & 1023; b[i] = (v * 3) & 1023; v = v * 17 + 7; }\n\
  \  return 0; }\n\
   int matmul() { int i; int j; int k; int sum;\n\
  \  for (i = 0; i < 22; i = i + 1) { for (j = 0; j < 22; j = j + 1) { sum = 0;\n\
  \    for (k = 0; k < 22; k = k + 1) { sum = sum + a[i * 22 + k] * b[k * 22 + j]; }\n\
  \    c[i * 22 + j] = sum; } }\n\
  \  return 0; }\n\
   int checksum() { int i; int s; s = 0; for (i = 0; i < 484; i = i + 1) { s = s + c[i]; } return s; }\n\
   int main() { init(); matmul(); return checksum() & 255; }\n"

(* Every alias region a loop pre-header creates is deleted at the loop's
   exit, so none is left in the region table when the program exits. *)
let test_alias_regions_die_with_their_loop () =
  let o = options ~opt:Instrument.O_full ~check_aliases:true () in
  let session, _, _, code, _ =
    run_session ~options:o ~watch:(fun dbg -> Debugger.watch dbg "a") ci_matrix_src
  in
  check_int "exit" 158 code;
  let audit = Audit.report session.Session.audit in
  let count kind =
    List.length
      (List.filter
         (fun (e : Audit.region_event) -> e.Audit.rg_kind = kind && e.Audit.rg_why <> "user")
         audit.Audit.a_regions)
  in
  check_bool "pre-headers created alias regions" true (count Audit.Region_created > 0);
  check_int "every one deleted" (count Audit.Region_created) (count Audit.Region_deleted);
  let internal = ref 0 in
  Region.iter (Machine.Cpu.mem session.Session.cpu) (fun r ->
      if r.Region.kind = Region.Internal then incr internal);
  check_int "no internal region left" 0 !internal

let test_symbol_elimination_and_premonitor () =
  let o = options ~opt:Instrument.O_symbol () in
  let session = Session.create ~options:o watched_src in
  let plan = session.Session.plan in
  (* The loop writes to g and i are matched. *)
  check_bool "some sites eliminated" true
    (List.exists
       (fun (s : Instrument.site) ->
         match s.status with Instrument.Sym_eliminated _ -> true | _ -> false)
       plan.Instrument.sites);
  check_bool "g has a patch list" true
    (List.mem_assoc "g" plan.Instrument.sites_by_pseudo);
  (* Without PreMonitor, matched writes are invisible (by design): *)
  let session2 = Session.create ~options:o watched_src in
  let mrs2 = session2.Session.mrs in
  (match Sparc.Symtab.lookup session2.Session.symtab "g" with
  | Some { Sparc.Symtab.location = Sparc.Symtab.Absolute a; _ } ->
    Mrs.create_region mrs2 (Region.v ~addr:a ~size_bytes:4 ());
    Mrs.enable mrs2
  | _ -> Alcotest.fail "no symbol g");
  ignore (Session.run session2);
  check_int "region alone misses matched writes" 0
    (count session2 Telemetry.User_hits);
  (* With the full debugger interface (region + PreMonitor): *)
  let session3, _, _, _, _ =
    run_session ~options:o ~watch:(fun dbg -> Debugger.watch dbg "g") watched_src
  in
  check_int "premonitor restores detection" 25
    (count session3 Telemetry.User_hits)

let test_loop_elimination_and_reinsertion () =
  let src =
    "int a[40]; int main() { register int i; for (i = 0; i < 40; i = i + 1) \
     { a[i] = i; } return a[13]; }"
  in
  let o = options ~opt:Instrument.O_full () in
  let session = Session.create ~options:o src in
  let plan = session.Session.plan in
  check_bool "loop-eliminated site exists" true
    (List.exists
       (fun (s : Instrument.site) ->
         match s.status with Instrument.Loop_eliminated _ -> true | _ -> false)
       plan.Instrument.sites);
  (* Watching the array: the pre-header range check must trigger and
     re-insert the eliminated check, catching all 40 writes. *)
  let session2, _, _, code, _ =
    run_session ~options:o ~watch:(fun dbg -> Debugger.watch dbg "a") src
  in
  check_int "exit" 13 code;
  let c = count session2 in
  check_int "all elements caught" 40 (c Telemetry.User_hits);
  check_bool "range check triggered" true (c Telemetry.Loop_triggers > 0);
  check_bool "patch inserted" true (c Telemetry.Patches_inserted > 0);
  check_int "oracle" 0 (Session.missed_hits session2)

let test_loop_not_triggered_when_unwatched () =
  let src =
    "int a[40]; int b; int main() { register int i; for (i = 0; i < 40; i = \
     i + 1) { a[i] = i; } b = 1; return b; }"
  in
  let o = options ~opt:Instrument.O_full () in
  (* Watch only b: the range check runs but never triggers. *)
  let session, _, _, _, _ =
    run_session ~options:o ~watch:(fun dbg -> Debugger.watch dbg "b") src
  in
  let c = count session in
  check_int "b caught" 1 (c Telemetry.User_hits);
  check_bool "loop entry checked" true (c Telemetry.Loop_entries > 0);
  check_int "never triggered" 0 (c Telemetry.Loop_triggers);
  check_int "oracle" 0 (Session.missed_hits session)

let test_cache_invalidation () =
  (* With segment caches, a region created mid-run (from a hit callback)
     must invalidate the caches so later hits are seen. *)
  let src =
    "int g; int h; int main() { int i; for (i = 0; i < 10; i = i + 1) { g = \
     i; } for (i = 0; i < 10; i = i + 1) { h = i; } return 0; }"
  in
  let o = options ~strategy:Strategy.Cache_inline () in
  let session = Session.create ~options:o src in
  let dbg = Debugger.create session in
  ignore (Debugger.watch dbg "g");
  let armed_h = ref false in
  Debugger.set_on_event dbg (fun _ ->
      if not !armed_h then begin
        armed_h := true;
        ignore (Debugger.watch dbg "h")
      end);
  ignore (Session.run session);
  let c = count session in
  check_int "hits on both" 20 (c Telemetry.User_hits)

let test_check_in_progress_flag () =
  (* The %g7 flag must be clear again after every call-based check. *)
  let o = options ~strategy:Strategy.Bitmap () in
  let session, _, _, _, _ =
    run_session ~options:o ~watch:(fun dbg -> Debugger.watch dbg "g") watched_src
  in
  check_int "g7 clear at exit" 0 (Machine.Cpu.get session.Session.cpu (Sparc.Reg.g 7))

let test_fault_isolation () =
  let src =
    "int shared; int good() { shared = 1; return 0; } int evil() { shared = \
     2; return 0; } int main() { good(); evil(); return shared; }"
  in
  (* Hit attribution must name the right function under both inline and
     call-based checks (the latter resolve the site through %i7). *)
  List.iter
    (fun strategy ->
      let session = Session.create ~options:(options ~strategy ()) src in
      let dbg = Debugger.create session in
      let w = Debugger.watch dbg "shared" in
      Debugger.restrict_writers dbg w ~writers:[ "good" ];
      ignore (Session.run session);
      match Debugger.violations dbg with
      | [ (_, Some f) ] ->
        Alcotest.(check string)
          ("culprit under " ^ Strategy.to_string strategy)
          "evil" f
      | _ -> Alcotest.failf "bad violations under %s" (Strategy.to_string strategy))
    [ Strategy.Bitmap; Strategy.Cache; Strategy.Hash_table ];
  let session = Session.create ~options:(options ()) src in
  let dbg = Debugger.create session in
  let w = Debugger.watch dbg "shared" in
  Debugger.restrict_writers dbg w ~writers:[ "good" ];
  let code, _ = Session.run session in
  check_int "exit" 2 code;
  check_int "two writes seen" 2 (List.length (Debugger.events dbg));
  (match Debugger.violations dbg with
  | [ (name, Some f) ] ->
    Alcotest.(check string) "watch name" "shared" name;
    Alcotest.(check string) "culprit" "evil" f
  | _ -> Alcotest.fail "expected exactly one violation from evil")

let test_watch_struct_field () =
  let src =
    "struct s { int a; int f; int b; }; struct s x; int main() { x.a = 1; \
     x.f = 2; x.b = 3; x.f = 4; return x.f; }"
  in
  let session, dbg, _, code, _ =
    run_session ~options:(options ())
      ~watch:(fun dbg -> Debugger.watch_field dbg "x" "f")
      src
  in
  check_int "exit" 4 code;
  check_int "only f's writes hit" 2 (count session Telemetry.User_hits);
  ignore dbg

let test_watch_heap_object () =
  let src =
    "int *leak_ptr; int main() { int *p; int i; p = malloc(32); leak_ptr = \
     p; for (i = 0; i < 8; i = i + 1) { p[i] = i; } return p[5]; }"
  in
  (* Arm the watch from the first hit on leak_ptr (the debugger learns
     the heap address at runtime, as a real session would). *)
  let session = Session.create ~options:(options ()) src in
  Session.install_oracle session;
  let dbg = Debugger.create session in
  ignore (Debugger.watch dbg "leak_ptr");
  let armed = ref false in
  Debugger.set_on_event dbg (fun e ->
      if (not !armed) && e.Debugger.watch.Debugger.wname = "leak_ptr" then begin
        armed := true;
        let addr =
          Machine.Memory.read_word (Machine.Cpu.mem session.Session.cpu) e.Debugger.addr
        in
        ignore (Debugger.watch_addr dbg ~name:"heap" ~addr ~size_bytes:32 ())
      end);
  let code, _ = Session.run session in
  check_int "exit" 5 code;
  let events = Debugger.events dbg in
  let heap_hits =
    List.length
      (List.filter (fun e -> e.Debugger.watch.Debugger.wname = "heap") events)
  in
  check_int "heap writes caught" 8 heap_hits

let test_read_monitoring () =
  let src =
    "int g; int main() { int i; int s; g = 5; s = 0; for (i = 0; i < 10; i =      i + 1) { s = s + g; } g = s; return s; }"
  in
  (* With read monitoring: 2 writes + 10 reads of g hit. *)
  List.iter
    (fun strategy ->
      let o =
        { (options ~strategy ()) with Instrument.monitor_reads = true }
      in
      let session, _, _, code, _ =
        run_session ~options:o ~watch:(fun dbg -> Debugger.watch dbg "g") src
      in
      check_int "exit" 50 code;
      let c = count session in
      check_int
        ("hits w+r under " ^ Strategy.to_string strategy)
        12 (c Telemetry.User_hits);
      check_int ("read hits under " ^ Strategy.to_string strategy) 10 (c Telemetry.Read_hits);
      check_int ("read oracle under " ^ Strategy.to_string strategy) 0
        (Session.missed_hits session))
    [ Strategy.Bitmap; Strategy.Bitmap_inline; Strategy.Bitmap_inline_registers;
      Strategy.Cache; Strategy.Cache_inline; Strategy.Hash_table ];
  (* Without: only the 2 writes. *)
  let session, _, _, _, _ =
    run_session ~options:(options ()) ~watch:(fun dbg -> Debugger.watch dbg "g") src
  in
  check_int "write-only hits" 2 (count session Telemetry.User_hits);
  check_int "no read hits" 0 (count session Telemetry.Read_hits)

let test_read_monitoring_semantics () =
  (* Read checks must not perturb results, including through pointer
     chains and scratch-register-sensitive address patterns. *)
  List.iter
    (fun src ->
      let expect, _ = run_plain src in
      List.iter
        (fun strategy ->
          let o = { (options ~strategy ()) with Instrument.monitor_reads = true } in
          let _, _, _, code, _ = run_session ~options:o src in
          check_int ("read-mon " ^ Strategy.to_string strategy) expect code)
        [ Strategy.Bitmap_inline_registers; Strategy.Cache_inline; Strategy.Bitmap ])
    semantics_programs

let test_nop_padding () =
  let o = { (options ()) with Instrument.nop_padding = 4 } in
  let _, _, _, code, _ = run_session ~options:o watched_src in
  check_int "padded run works" 50 code

let test_oracle_detects_sabotage () =
  (* Failure injection: silently clear the variable's bit in the
     in-memory bitmap after arming the watch.  Checks then miss, and
     the oracle MUST report the misses — proving the soundness tests
     are not vacuous. *)
  let session = Session.create ~options:(options ()) watched_src in
  Session.install_oracle session;
  let dbg = Debugger.create session in
  ignore (Debugger.watch dbg "g");
  (match Sparc.Symtab.lookup session.Session.symtab "g" with
  | Some { Sparc.Symtab.location = Sparc.Symtab.Absolute a; _ } ->
    let layout = session.Session.plan.Instrument.options.Instrument.layout in
    let mem = Machine.Cpu.mem session.Session.cpu in
    let entry_addr = Layout.table_entry_addr layout a in
    let entry =
      Sparc.Word.to_unsigned (Machine.Memory.read_word mem entry_addr)
    in
    let segptr = entry land lnot 1 in
    let widx = Layout.word_in_segment layout a in
    let word_addr = segptr + (4 * (widx lsr 5)) in
    let w = Sparc.Word.to_unsigned (Machine.Memory.read_word mem word_addr) in
    Machine.Memory.write_word mem word_addr (w land lnot (1 lsl (widx land 31)))
  | _ -> Alcotest.fail "no g");
  ignore (Session.run session);
  check_int "no hits after sabotage" 0
    (count session Telemetry.User_hits);
  check_bool "oracle reports the misses" true (Session.missed_hits session > 0)

let test_checkpoint_replay () =
  (* §5: checkpoint at a hit, run to completion, roll back, replay —
     the second run must reproduce the first exactly. *)
  let src =
    "int g; int trace; int main() { int i; for (i = 0; i < 12; i = i + 1) {      g = g * 3 + i; trace = trace ^ g; } return trace & 65535; }"
  in
  let session = Session.create ~options:(options ()) src in
  let dbg = Debugger.create session in
  ignore (Debugger.watch dbg "g");
  let cp = ref None in
  Debugger.set_on_event dbg (fun _ ->
      if !cp = None then cp := Some (Machine.Cpu.checkpoint session.Session.cpu));
  let code1, out1 = Session.run session in
  let hits1 = (count session Telemetry.User_hits) in
  (match !cp with
  | None -> Alcotest.fail "no checkpoint taken"
  | Some cp ->
    Machine.Cpu.rollback session.Session.cpu cp;
    let code2, out2 = Session.run session in
    check_int "replayed exit" code1 code2;
    Alcotest.(check string) "replayed output" out1 out2;
    (* The replay sees the post-checkpoint hits again. *)
    check_int "replayed hits" (2 * hits1 - 1)
      (count session Telemetry.User_hits))

let test_trap_check_strategy () =
  let session, _, _, code, _ =
    run_session
      ~options:(options ~strategy:Strategy.Trap_check ())
      ~watch:(fun dbg -> Debugger.watch dbg "g")
      watched_src
  in
  check_int "exit" 50 code;
  check_int "hits via traps" 25 (count session Telemetry.User_hits);
  check_int "oracle" 0 (Session.missed_hits session)

(* The MRS's disabled flag lives in %g6 alone, so a rollback to before
   [enable] disables it again: hardware watchpoints (which compare in a
   store hook) behave like the inline checks. *)
let test_rollback_past_enable () =
  List.iter
    (fun strategy ->
      let session = Session.create ~options:(options ~strategy ()) watched_src in
      let cp = Machine.Cpu.checkpoint session.Session.cpu in
      let dbg = Debugger.create session in
      ignore (Debugger.watch dbg "g");
      Machine.Cpu.rollback session.Session.cpu cp;
      let code, _ = Session.run session in
      check_int "exit" 50 code;
      check_int
        (Strategy.to_string strategy ^ ": no hits after the rollback")
        0
        (count session Telemetry.User_hits))
    [ Strategy.Bitmap_inline_registers; Strategy.Hardware_watch 1 ]

let test_hardware_watch_strategy () =
  (* Detection works and costs nothing, but capacity is 4 words. *)
  let o = options ~strategy:(Strategy.Hardware_watch 4) () in
  let session, _, _, code, _ =
    run_session ~options:o ~watch:(fun dbg -> Debugger.watch dbg "g") watched_src
  in
  check_int "exit" 50 code;
  check_int "hits" 25 (count session Telemetry.User_hits);
  (* Zero overhead: no checks were inserted at all. *)
  let plain_instrs =
    let s2 = Session.create ~options:(options ~strategy:Strategy.Nocheck ()) watched_src in
    ignore (Session.run s2);
    (Session.stats s2).Machine.Cpu.instrs
  in
  check_int "no extra instructions" plain_instrs (Session.stats session).Machine.Cpu.instrs;
  (* Watching a 64-word array exceeds the registers. *)
  let src = "int big[64]; int main() { big[0] = 1; return big[0]; }" in
  let session2 = Session.create ~options:o src in
  let dbg2 = Debugger.create session2 in
  (try
     ignore (Debugger.watch dbg2 "big");
     Alcotest.fail "expected capacity failure"
   with Mrs.Hardware_capacity 4 -> ())

let test_overhead_independent_of_breakpoints () =
  (* The abstract's claim: checking overhead is independent of the
     number of breakpoints in use.  Cycles with 0 vs 16 armed regions
     (none of them hit) must agree almost exactly. *)
  let src =
    "int g; int main() { int i; for (i = 0; i < 2000; i = i      + 1) { g = g + i; } return g & 255; }"
  in
  (* Regions in address space the program never touches (a different
     bitmap segment): per-check cost must not depend on how many there
     are.  (Regions sharing a segment with hot data do cost more — the
     full-lookup effect the break-even analysis of §3.3.3 quantifies.) *)
  let cycles nregions =
    let session = Session.create ~options:(options ()) src in
    for k = 0 to nregions - 1 do
      Mrs.create_region session.Session.mrs
        (Region.v ~addr:(0x5000_0000 + (1024 * k)) ~size_bytes:4 ())
    done;
    Mrs.enable session.Session.mrs;
    ignore (Session.run session);
    (Session.stats session).Machine.Cpu.cycles
  in
  let c0 = cycles 0 and c16 = cycles 16 in
  let drift = abs (c16 - c0) in
  check_bool
    (Printf.sprintf "cycles drift %d of %d" drift c0)
    true
    (float_of_int drift < 0.02 *. float_of_int c0)

let test_mrs_self_protection () =
  (* A wild pointer smashing the MRS shadow stack is caught as an
     internal hit (§2.1), without disturbing the program. *)
  let src =
    {|int main() { int *p; p = 0xB0000000; *p = 7; return 5; }|}
  in
  let session = Session.create ~options:(options ()) ~protect_mrs:true src in
  Mrs.enable session.Session.mrs;
  let code, _ = Session.run session in
  check_int "exit" 5 code;
  check_bool "corruption detected" true
    (count session Telemetry.Internal_hits > 0);
  (* Without self-protection it goes unnoticed. *)
  let session2 = Session.create ~options:(options ()) src in
  Mrs.enable session2.Session.mrs;
  ignore (Session.run session2);
  check_int "undetected without protection" 0
    (count session2 Telemetry.Internal_hits)

let test_conditional_watch () =
  (* "stop when g > 100": only the qualifying writes produce events. *)
  let src =
    "int g; int main() { int i; for (i = 0; i < 10; i = i + 1) { g = i * 30;      } return g; }"
  in
  let session = Session.create ~options:(options ()) src in
  let dbg = Debugger.create session in
  ignore (Debugger.watch dbg ~condition:(fun v -> v > 100) "g");
  let code, _ = Session.run session in
  check_int "exit" 270 code;
  (* writes: 0,30,...,270; > 100 are 120..270 = 6 events *)
  check_int "conditional events" 6 (List.length (Debugger.events dbg));
  (* values visible in events (checks run after the store) *)
  check_bool "values recorded" true
    (List.for_all (fun (e : Debugger.event) -> e.Debugger.value > 100)
       (Debugger.events dbg))

let test_control_breakpoints () =
  let src =
    "int f(int x) { return x * 2; } int main() { int i; int s; s = 0; for (i      = 0; i < 5; i = i + 1) { s = s + f(i); } return s; }"
  in
  let session = Session.create ~options:(options ()) src in
  let dbg = Debugger.create session in
  let args = ref [] in
  Debugger.break_at dbg "f" (fun _ cpu ->
      args := Machine.Cpu.get cpu (Sparc.Reg.o 0) :: !args);
  let code, _ = Session.run session in
  check_int "exit" 20 code;
  check_int "break count" 5 (Debugger.break_count dbg "f");
  check_bool "arguments observed" true (List.rev !args = [ 0; 1; 2; 3; 4 ])

let test_watch_local_from_breakpoint () =
  (* Arm a watch on a local of a specific frame from a control
     breakpoint — the classic combined use the paper motivates. *)
  let src =
    "int f(int x) { int acc; int i; acc = x; for (i = 0; i < 3; i = i + 1) {      acc = acc + i; } return acc; } int main() { return f(10) + f(20); }"
  in
  let session = Session.create ~options:(options ()) src in
  let dbg = Debugger.create session in
  let armed = ref false in
  let wp = ref None in
  Debugger.break_at dbg "f" (fun (e : Debugger.breakpoint_event) cpu ->
      if e.Debugger.count = 2 && not !armed then begin
        armed := true;
        (* At function entry the frame is not yet pushed; %sp will
           become %fp after the save, so compute the callee fp = current
           %sp. *)
        let fp = Machine.Cpu.get cpu Sparc.Reg.sp in
        wp := Some (Debugger.watch_local dbg ~func:"f" ~var:"acc" ~fp ())
      end);
  let code, _ = Session.run session in
  check_int "exit" (13 + 23) code;
  (* Only the second call's acc updates are seen: acc = x, then 3
     increments = 4 writes. *)
  check_int "second-frame writes only" 4 (List.length (Debugger.events dbg));
  check_bool "final value seen" true
    (List.exists (fun (e : Debugger.event) -> e.Debugger.value = 23)
       (Debugger.events dbg))

let suites =
  [
    ( "dbp.region",
      [
        Alcotest.test_case "basics" `Quick test_region_basics;
        Alcotest.test_case "sets" `Quick test_region_set;
      ] );
    ( "dbp.segbitmap",
      [
        Alcotest.test_case "basic" `Quick test_segbitmap_basic;
        Alcotest.test_case "byte addresses" `Quick test_segbitmap_byte_addresses;
        Alcotest.test_case "cross segment" `Quick test_segbitmap_cross_segment;
        Alcotest.test_case "segment edges + packed flag" `Quick
          test_segbitmap_segment_edges;
        Alcotest.test_case "flags follow a memory restore" `Quick
          test_segbitmap_restore;
        QCheck_alcotest.to_alcotest prop_segbitmap_matches_model;
      ] );
    ("dbp.write_type", [ Alcotest.test_case "classification" `Quick test_write_types ]);
    ( "dbp.end_to_end",
      [
        Alcotest.test_case "semantics preserved" `Slow test_semantics_preserved;
        Alcotest.test_case "hits, all strategies" `Quick test_hits_all_strategies;
        Alcotest.test_case "store table, all strategies" `Quick test_store_table;
        Alcotest.test_case "site map = label reference" `Quick
          test_site_map_reference;
        Alcotest.test_case "disabled flag" `Quick test_disabled_no_hits;
        Alcotest.test_case "alias writes detected" `Quick test_alias_writes_detected;
        Alcotest.test_case "alias regions die with their loop" `Quick
          test_alias_regions_die_with_their_loop;
        Alcotest.test_case "nop padding" `Quick test_nop_padding;
        Alcotest.test_case "read monitoring hits" `Quick test_read_monitoring;
        Alcotest.test_case "read monitoring semantics" `Slow
          test_read_monitoring_semantics;
      ] );
    ( "dbp.optimizations",
      [
        Alcotest.test_case "symbol elimination + PreMonitor" `Quick
          test_symbol_elimination_and_premonitor;
        Alcotest.test_case "loop elimination + reinsertion" `Quick
          test_loop_elimination_and_reinsertion;
        Alcotest.test_case "range check no trigger" `Quick
          test_loop_not_triggered_when_unwatched;
        Alcotest.test_case "segment cache invalidation" `Quick test_cache_invalidation;
        Alcotest.test_case "check-in-progress flag" `Quick test_check_in_progress_flag;
      ] );
    ( "dbp.debugger",
      [
        Alcotest.test_case "fault isolation" `Quick test_fault_isolation;
        Alcotest.test_case "watch struct field" `Quick test_watch_struct_field;
        Alcotest.test_case "watch heap object" `Quick test_watch_heap_object;
        Alcotest.test_case "oracle detects sabotage" `Quick test_oracle_detects_sabotage;
        Alcotest.test_case "checkpoint and replay" `Quick test_checkpoint_replay;
        Alcotest.test_case "trap-check strategy" `Quick test_trap_check_strategy;
        Alcotest.test_case "hardware watch strategy" `Quick test_hardware_watch_strategy;
        Alcotest.test_case "rollback past enable" `Quick test_rollback_past_enable;
        Alcotest.test_case "overhead independent of breakpoints" `Quick
          test_overhead_independent_of_breakpoints;
        Alcotest.test_case "MRS self-protection" `Quick test_mrs_self_protection;
        Alcotest.test_case "conditional watchpoints" `Quick test_conditional_watch;
        Alcotest.test_case "control breakpoints" `Quick test_control_breakpoints;
        Alcotest.test_case "watch local from breakpoint" `Quick
          test_watch_local_from_breakpoint;
      ] );
  ]
