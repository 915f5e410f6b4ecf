open Sparc
open Machine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Memory -------------------------------------------------------------- *)

let test_memory_words () =
  let m = Memory.create () in
  check_int "uninitialized" 0 (Memory.read_word m 0x1000);
  Memory.write_word m 0x1000 0xDEADBEEF;
  check_int "read back" (Word.norm 0xDEADBEEF) (Memory.read_word m 0x1000);
  Memory.write_word m 0xFFFF_FFFC (-1);
  check_int "top of memory" (-1) (Memory.read_word m 0xFFFF_FFFC);
  Alcotest.check_raises "misaligned"
    (Memory.Misaligned { addr = 0x1002; width = 4 })
    (fun () -> ignore (Memory.read_word m 0x1002))

let test_memory_bytes () =
  let m = Memory.create () in
  Memory.write_word m 0x2000 0x11223344;
  (* Big-endian: byte 0 is the most significant. *)
  check_int "byte 0" 0x11 (Memory.read_byte m 0x2000);
  check_int "byte 3" 0x44 (Memory.read_byte m 0x2003);
  Memory.write_byte m 0x2001 0xAB;
  check_int "after byte write" (Word.norm 0x11AB3344) (Memory.read_word m 0x2000);
  check_int "half 0" 0x11AB (Memory.read_half m 0x2000);
  Memory.write_half m 0x2002 0xCDEF;
  check_int "after half write" (Word.norm 0x11ABCDEF) (Memory.read_word m 0x2000)

let test_memory_page_offsets () =
  (* Regression: addresses 1 KiB apart within the same 4 KiB page must
     not alias (a precedence bug in the page-offset mask once made
     0x4003F0 and 0x4007F0 share a cell). *)
  let m = Memory.create () in
  List.iter
    (fun (a, v) -> Memory.write_word m a v)
    [ (0x4003F0, 1); (0x4007F0, 2); (0x400BF0, 3); (0x400FF0, 4) ];
  check_int "1k apart" 1 (Memory.read_word m 0x4003F0);
  check_int "2k apart" 2 (Memory.read_word m 0x4007F0);
  check_int "3k apart" 3 (Memory.read_word m 0x400BF0);
  check_int "4k apart" 4 (Memory.read_word m 0x400FF0);
  (* Dense fill of a whole page round-trips. *)
  for i = 0 to 1023 do
    Memory.write_word m (0x80_0000 + (4 * i)) (i * 7)
  done;
  let ok = ref true in
  for i = 0 to 1023 do
    if Memory.read_word m (0x80_0000 + (4 * i)) <> i * 7 then ok := false
  done;
  check_bool "page fill round trip" true !ok

let test_memory_signed () =
  let m = Memory.create () in
  Memory.write_byte m 0x3000 0xFF;
  check_int "signed byte" (-1) (Memory.read_signed m 0x3000 Insn.Byte);
  check_int "unsigned byte" 0xFF (Memory.read_unsigned m 0x3000 Insn.Byte);
  Memory.write_half m 0x3002 0x8000;
  check_int "signed half" (-32768) (Memory.read_signed m 0x3002 Insn.Half);
  check_int "unsigned half" 0x8000 (Memory.read_unsigned m 0x3002 Insn.Half)

(* --- Memory against a reference model ------------------------------------ *)

(* The reference is an [IntMap] from word address to normalized word,
   plus the set of pages ever written; every snapshot keeps its own
   copy of both.  Beside it the test models cell identity: a page gets
   a fresh cell on its first write after a snapshot or a restore, and
   {!Memory.view_diff} counts the cells two views do not share. *)
module IntMap = Map.Make (Int)
module IntSet = Set.Make (Int)

type model = { words : int IntMap.t; pages : IntSet.t }

type mem_op =
  | Write_word of int * int
  | Write_byte of int * int
  | Write_half of int * int
  | Read of int
  | Snapshot
  | Restore of int
  | Diff of int
  | View_read of int * int
  | Iter_written
  | Cycle of int * int * int * int
  | View_diff of int * int

let show_op = function
  | Write_word (a, v) -> Printf.sprintf "write_word 0x%x %d" a v
  | Write_byte (a, v) -> Printf.sprintf "write_byte 0x%x %d" a v
  | Write_half (a, v) -> Printf.sprintf "write_half 0x%x %d" a v
  | Read a -> Printf.sprintf "read 0x%x" a
  | Snapshot -> "snapshot"
  | Restore i -> Printf.sprintf "restore %d" i
  | Diff i -> Printf.sprintf "diff %d" i
  | View_read (i, a) -> Printf.sprintf "view_read %d 0x%x" i a
  | Iter_written -> "iter_written"
  | Cycle (i, a, v, j) ->
    Printf.sprintf "restore %d; write_word 0x%x %d; snapshot; restore %d" i a v j
  | View_diff (i, j) -> Printf.sprintf "view_diff %d %d" i j

(* Word addresses at the page table's edges: the first page, the last
   page of one second level and the first of the next, the stack, and
   the top of memory.  Half of them are drawn in their negative
   [Word.norm] form, which names the same address. *)
let gen_addr ~align =
  let open QCheck.Gen in
  let* base = oneofl [ 0; 0x3FFFFC; 0x400000; 0x7FFFFF00; 0xFFFFFFFC ]
  and* k = int_range (-2) 2
  and* off = int_bound (3 / align)
  and* neg = bool in
  let a = (base + (4 * k) + (align * off)) land 0xFFFFFFFF in
  return (if neg then Word.norm a else a)

let gen_mem_op =
  let open QCheck.Gen in
  let value = oneof [ int_range (-5) 5; map Word.norm int ] in
  frequency
    [
      (4, map2 (fun a v -> Write_word (a, v)) (gen_addr ~align:4) value);
      (2, map2 (fun a v -> Write_byte (a, v)) (gen_addr ~align:1) (int_bound 255));
      (2, map2 (fun a v -> Write_half (a, v)) (gen_addr ~align:2) (int_bound 0xFFFF));
      (3, map (fun a -> Read a) (gen_addr ~align:1));
      (2, return Snapshot);
      (1, map (fun i -> Restore i) nat);
      (1, map (fun i -> Diff i) nat);
      (2, map2 (fun i a -> View_read (i, a)) nat (gen_addr ~align:4));
      (1, return Iter_written);
      (* Restores, then writes through a restored page: pages pass
         through the shared, packed and restored-from-packed states,
         and each restore reuses the arrays no view holds. *)
      ( 3,
        map3
          (fun i (a, v) j -> Cycle (i, a, v, j))
          nat (pair (gen_addr ~align:4) value) nat );
      (1, map2 (fun i j -> View_diff (i, j)) nat nat);
    ]

let uns = Word.to_unsigned
let word_addr a = uns a land lnot 3
let model_word m a = Option.value ~default:0 (IntMap.find_opt (word_addr a) m.words)

(* Big-endian bytes of the word holding [a], most significant first. *)
let model_bytes m a = List.init 4 (fun i -> (uns (model_word m a) lsr (24 - (8 * i))) land 0xFF)

let model_byte m a = List.nth (model_bytes m a) (uns a land 3)

let model_set m a w =
  {
    words = IntMap.add (word_addr a) (Word.norm w) m.words;
    pages = IntSet.add (uns a lsr Memory.page_bits) m.pages;
  }

let model_write_byte m a v =
  let bytes = List.mapi (fun i b -> if i = uns a land 3 then v land 0xFF else b) (model_bytes m a) in
  model_set m a (List.fold_left (fun w b -> (w lsl 8) lor b) 0 bytes)

let model_read m a =
  match uns a land 3 with
  | 0 -> model_word m a
  | 2 -> (model_byte m a lsl 8) lor model_byte m (a + 1)
  | _ -> model_byte m a

let read_like_model mem a =
  match uns a land 3 with
  | 0 -> Memory.read_word mem a
  | 2 -> Memory.read_half mem a
  | _ -> Memory.read_byte mem a

let run_mem_ops ops =
  let mem = Memory.create () in
  let live = ref { words = IntMap.empty; pages = IntSet.empty } in
  (* Cell model: the live page -> cell id map, and the pages whose cell
     is fresh since the last snapshot or restore. *)
  let cells = ref IntMap.empty and fresh = ref IntSet.empty and next_cell = ref 0 in
  let touch a =
    let k = uns a lsr Memory.page_bits in
    if not (IntSet.mem k !fresh) then begin
      incr next_cell;
      cells := IntMap.add k !next_cell !cells;
      fresh := IntSet.add k !fresh
    end
  in
  let snaps = ref [||] in
  let touched =
    List.fold_left
      (fun s -> function
        | Write_word (a, _) | Write_byte (a, _) | Write_half (a, _) | Read a
        | View_read (_, a) | Cycle (_, a, _, _) ->
          IntSet.add (word_addr a) s
        | Snapshot | Restore _ | Diff _ | Iter_written | View_diff _ -> s)
      IntSet.empty ops
  in
  let nth i = (!snaps).(i mod Array.length !snaps) in
  let rec step op =
    match op with
    | Write_word (a, v) ->
      Memory.write_word mem a v;
      touch a;
      live := model_set !live a v
    | Write_byte (a, v) ->
      Memory.write_byte mem a v;
      touch a;
      live := model_write_byte !live a v
    | Write_half (a, v) ->
      Memory.write_half mem a v;
      touch a;
      live := model_write_byte (model_write_byte !live a (v lsr 8)) (a + 1) v
    | Read a ->
      let got = read_like_model mem a and want = model_read !live a in
      if got <> want then QCheck.Test.fail_reportf "read 0x%x: %d, model %d" a got want
    | Snapshot ->
      let v = Memory.snapshot_cow mem in
      (* Reads of never-written pages must not have mapped any. *)
      if Memory.view_pages v <> IntSet.cardinal !live.pages then
        QCheck.Test.fail_reportf "snapshot maps %d pages, model wrote %d"
          (Memory.view_pages v) (IntSet.cardinal !live.pages);
      fresh := IntSet.empty;
      snaps := Array.append !snaps [| (v, !live, !cells) |]
    | Restore i when !snaps <> [||] ->
      let v, m, c = nth i in
      Memory.restore_cow mem v;
      live := m;
      cells := c;
      fresh := IntSet.empty
    | Diff i when !snaps <> [||] ->
      let v, m, _ = nth i in
      let want =
        IntMap.merge
          (fun _ l r ->
            let l = Option.value l ~default:0 and r = Option.value r ~default:0 in
            if l = r then None else Some (r, l))
          !live.words m.words
        |> IntMap.min_binding_opt
        |> Option.map (fun (a, (r, l)) -> (a, r, l))
      in
      if Memory.diff_view mem v <> want then
        QCheck.Test.fail_reportf "diff_view against snapshot %d disagrees" i
    | View_read (i, a) when !snaps <> [||] ->
      let v, m, _ = nth i in
      if Memory.view_read_word v a <> model_word m a then
        QCheck.Test.fail_reportf "view_read_word 0x%x disagrees" a
    | Iter_written ->
      let got = ref [] in
      Memory.iter_written mem (fun a v -> got := (a, v) :: !got);
      (* Ascending order is part of the contract: no sort here. *)
      let want = IntMap.bindings (IntMap.filter (fun _ v -> v <> 0) !live.words) in
      if List.rev !got <> want then QCheck.Test.fail_reportf "iter_written disagrees"
    | Cycle (i, a, v, j) ->
      if !snaps = [||] then step Snapshot;
      List.iter step [ Restore i; Write_word (a, v); Snapshot; Restore j; Diff i; Iter_written ]
    | View_diff (i, j) when !snaps <> [||] ->
      let vi, _, ci = nth i and vj, _, cj = nth j in
      let want =
        IntMap.fold
          (fun k c n -> if IntMap.find_opt k ci = Some c then n else n + 1)
          cj 0
      in
      let got = Memory.view_diff vi vj in
      if got <> want then
        QCheck.Test.fail_reportf "view_diff %d %d: %d cells, model %d" i j got want
    | Restore _ | Diff _ | View_read _ | View_diff _ -> ()
  in
  List.iter
    (fun op ->
      step op;
      (* No write, restore or copy ever reaches a snapshot. *)
      Array.iteri
        (fun i (v, m, _) ->
          IntSet.iter
            (fun a ->
              if Memory.view_read_word v a <> model_word m a then
                QCheck.Test.fail_reportf "snapshot %d changed at 0x%x after %s" i a
                  (show_op op))
            touched)
        !snaps)
    ops;
  true

let prop_memory_model =
  QCheck.Test.make ~name:"page table and COW views = reference model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 80) gen_mem_op))
    run_mem_ops

(* --- Cache --------------------------------------------------------------- *)

let test_cache_basic () =
  let c = Cache.create ~size_bytes:1024 ~line_bytes:32 () in
  check_bool "cold miss" false (Cache.access c 0x1000);
  check_bool "hit same line" true (Cache.access c 0x101C);
  check_bool "miss next line" false (Cache.access c 0x1020);
  (* Direct-mapped conflict: 0x1000 and 0x1000+1024 map to the same line. *)
  check_bool "conflict evicts" false (Cache.access c 0x1400);
  check_bool "original now misses" false (Cache.access c 0x1000);
  check_int "hits" 1 (Cache.hits c);
  check_int "misses" 4 (Cache.misses c)

(* Chunk-shared cache snapshots against a flat-copy model: the model
   keeps a plain tag array and copies all of it per snapshot.  Random
   accesses, snapshots and restores to random earlier snapshots must
   give the same hit/miss stream and counters.  The cache
   sizes give four full tag chunks, and a line count that is not a
   power of two (so a short last chunk and the [mod] index). *)
type cache_op = Access of int | Cache_snapshot | Cache_restore of int

let show_cache_op = function
  | Access a -> Printf.sprintf "access 0x%x" a
  | Cache_snapshot -> "snapshot"
  | Cache_restore i -> Printf.sprintf "restore %d" i

let run_cache_ops (size_bytes, ops) =
  let line_bytes = 32 in
  let lines = size_bytes / line_bytes in
  let c = Cache.create ~size_bytes ~line_bytes () in
  let tags = Array.make lines (-1) and hits = ref 0 and misses = ref 0 in
  let snaps = ref [||] in
  let step = function
    | Access a ->
      let line = a / line_bytes in
      let want = tags.(line mod lines) = line in
      if want then incr hits
      else begin
        incr misses;
        tags.(line mod lines) <- line
      end;
      if Cache.access c a <> want then
        QCheck.Test.fail_reportf "access 0x%x: cache says %b" a (not want)
    | Cache_snapshot ->
      snaps := Array.append !snaps [| (Cache.snapshot c, Array.copy tags, !hits, !misses) |]
    | Cache_restore i ->
      if !snaps <> [||] then begin
        let s, t, h, m = (!snaps).(i mod Array.length !snaps) in
        Cache.restore c s;
        Array.blit t 0 tags 0 lines;
        hits := h;
        misses := m
      end
  in
  List.iter
    (fun op ->
      step op;
      if (Cache.hits c, Cache.misses c) <> (!hits, !misses) then
        QCheck.Test.fail_reportf "counters after %s: %d/%d, model %d/%d"
          (show_cache_op op) (Cache.hits c) (Cache.misses c) !hits !misses)
    ops;
  true

let prop_cache_snapshots =
  let open QCheck.Gen in
  (* Four regions that conflict in the cache.  A window between two
     snapshots holds a few accesses, so it leaves some chunks clean and
     the next snapshot shares them. *)
  let addr =
    map2 (fun region off -> (region * 0x2000) + off) (int_bound 3) (int_bound 0x1FFF)
  in
  let op =
    frequency
      [
        (12, map (fun a -> Access a) addr);
        (2, return Cache_snapshot);
        (2, map (fun i -> Cache_restore i) nat);
      ]
  in
  QCheck.Test.make ~name:"chunk-shared snapshots = flat-copy model" ~count:300
    (QCheck.make
       ~print:(fun (size, ops) ->
         Printf.sprintf "%d bytes: %s" size (String.concat "; " (List.map show_cache_op ops)))
       QCheck.Gen.(pair (oneofl [ 8192; 3200 ]) (list_size (int_range 1 200) op)))
    run_cache_ops

(* --- Windows -------------------------------------------------------------- *)

let test_windows_overlap () =
  let w = Windows.create () in
  Windows.set w (Reg.o 0) 42;
  Windows.save w;
  check_int "out becomes in" 42 (Windows.get w (Reg.i_ 0));
  Windows.set w (Reg.i_ 0) 43;
  Windows.restore w;
  check_int "in writes propagate back" 43 (Windows.get w (Reg.o 0))

let test_windows_g0 () =
  let w = Windows.create () in
  Windows.set w Reg.g0 99;
  check_int "g0 reads zero" 0 (Windows.get w Reg.g0)

let test_windows_oscillation () =
  (* Oscillating save/restore at a fixed depth beyond the window count
     must spill only on the first crossing, as on real hardware. *)
  let w = Windows.create ~nwindows:4 () in
  for _ = 1 to 6 do Windows.save w done;
  (* depth 1 -> 7 with 4 windows: saves past the 3rd spill. *)
  let spills_after_dive = Windows.spills w in
  check_int "three spills on the dive" 3 spills_after_dive;
  for _ = 1 to 20 do
    Windows.restore w;
    Windows.save w
  done;
  check_int "oscillation adds no spills" spills_after_dive (Windows.spills w);
  check_int "nor fills" 0 (Windows.fills w);
  (* Returning all the way up fills the spilled windows back. *)
  for _ = 1 to 5 do Windows.restore w done;
  check_int "fills on the climb" 2 (Windows.fills w)

let test_windows_spill () =
  let w = Windows.create ~nwindows:4 () in
  for _ = 1 to 6 do Windows.save w done;
  check_bool "spills counted" true (Windows.spills w >= 3);
  for _ = 1 to 6 do Windows.restore w done;
  Alcotest.check_raises "underflow" Windows.Underflow (fun () ->
      Windows.restore w)

(* 40 deep is past [nwindows] and past the flat file's initial
   capacity, so the file grows while windows are live. *)
let test_windows_deep () =
  let w = Windows.create () in
  let depth = 40 in
  let tag d i = (1000 * d) + i in
  for d = 1 to depth do
    if d > 1 then begin
      Windows.save w;
      for i = 0 to 7 do
        check_int "ins are the parent's outs" (tag (d - 1) (50 + i)) (Windows.get w (Reg.i_ i));
        check_int "fresh locals" 0 (Windows.get w (Reg.l i));
        check_int "fresh outs" 0 (Windows.get w (Reg.o i))
      done
    end;
    for i = 0 to 7 do
      Windows.set w (Reg.l i) (tag d i);
      Windows.set w (Reg.o i) (tag d (50 + i))
    done
  done;
  check_int "depth" depth (Windows.depth w);
  check_int "spills past nwindows" (depth - 8) (Windows.spills w);
  for d = depth downto 2 do
    for i = 0 to 7 do
      check_int "locals survive" (tag d i) (Windows.get w (Reg.l i));
      (* Below the top, the child's in writes have replaced the outs. *)
      check_int "outs survive"
        (if d = depth then tag d (50 + i) else -tag (d + 1) i)
        (Windows.get w (Reg.o i));
      Windows.set w (Reg.i_ i) (-tag d i)
    done;
    Windows.restore w;
    for i = 0 to 7 do
      check_int "in writes reach the parent's outs" (-tag d i) (Windows.get w (Reg.o i))
    done
  done;
  check_int "fills on the climb" (depth - 8) (Windows.fills w)

(* A copy taken at one depth restores exactly into a file at another,
   in both directions, including into a file smaller than the copy. *)
let test_windows_copy_depths () =
  let fill w d =
    for i = 0 to 7 do
      Windows.set w (Reg.l i) ((1000 * d) + i);
      Windows.set w (Reg.o i) ((1000 * d) + 8 + i)
    done
  in
  let w = Windows.create () in
  fill w 1;
  for d = 2 to 30 do
    Windows.save w;
    fill w d
  done;
  Windows.set w (Reg.g 3) 7;
  let deep = Windows.copy w in
  for _ = 1 to 27 do Windows.restore w done;
  Windows.set w (Reg.l 0) (-1);
  Windows.set w (Reg.g 3) 8;
  let shallow = Windows.copy w in
  let check_deep w =
    check_int "deep depth" 30 (Windows.depth w);
    check_int "deep global" 7 (Windows.get w (Reg.g 3));
    for d = 30 downto 1 do
      for i = 0 to 7 do
        check_int "locals" ((1000 * d) + i) (Windows.get w (Reg.l i));
        check_int "outs" ((1000 * d) + 8 + i) (Windows.get w (Reg.o i));
        if d > 1 then
          check_int "ins" ((1000 * (d - 1)) + 8 + i) (Windows.get w (Reg.i_ i))
      done;
      if d > 1 then Windows.restore w
    done
  in
  Windows.restore_from w deep;
  check_deep w;
  let small = Windows.create ~nwindows:2 () in
  Windows.restore_from small deep;
  check_deep small;
  Windows.restore_from w shallow;
  check_int "shallow depth" 3 (Windows.depth w);
  check_int "shallow global" 8 (Windows.get w (Reg.g 3));
  check_int "shallow local" (-1) (Windows.get w (Reg.l 0));
  Windows.save w;
  check_int "ins after save" 3008 (Windows.get w (Reg.i_ 0));
  check_int "no stale deep locals" 0 (Windows.get w (Reg.l 1));
  check_int "no stale deep outs" 0 (Windows.get w (Reg.o 1))

(* --- Cpu ------------------------------------------------------------------- *)

let run_program ?config items data =
  let prog = { Asm.text = Asm.Label "main" :: items; data; entry = "main" } in
  let image = Assembler.assemble prog in
  let cpu = Cpu.create ?config image in
  Cpu.install_basic_services cpu;
  let code = Cpu.run cpu in
  (cpu, code, image)

let exit_with reg = [ Asm.Insn (Asm.mov (Insn.Reg reg) (Reg.o 0)); Asm.Insn (Asm.trap 0) ]

let test_cpu_arith () =
  let items =
    Asm.insns
      [
        Asm.mov (Insn.Imm 6) (Reg.l 0);
        Asm.mov (Insn.Imm 7) (Reg.l 1);
        Asm.smul (Reg.l 0) (Insn.Reg (Reg.l 1)) (Reg.l 2);
      ]
    @ exit_with (Reg.l 2)
  in
  let _, code, _ = run_program items [] in
  check_int "6*7" 42 code

let test_cpu_memory_and_set () =
  let items =
    [
      Asm.Set_label { label = "x"; offset = 0; rd = Reg.l 0 };
      Asm.Insn (Asm.ld (Reg.l 0) (Insn.Imm 0) (Reg.l 1));
      Asm.Insn (Asm.add (Reg.l 1) (Insn.Imm 1) (Reg.l 1));
      Asm.Insn (Asm.st (Reg.l 1) (Reg.l 0) (Insn.Imm 0));
      Asm.Insn (Asm.ld (Reg.l 0) (Insn.Imm 0) (Reg.l 2));
    ]
    @ exit_with (Reg.l 2)
  in
  let _, code, _ = run_program items [ { Asm.name = "x"; size = 4; init = [ 41 ] } ] in
  check_int "increment global" 42 code

let test_cpu_loop_and_branch () =
  (* sum 1..10 *)
  let items =
    Asm.insns
      [
        Asm.mov (Insn.Imm 0) (Reg.l 0);
        Asm.mov (Insn.Imm 1) (Reg.l 1);
      ]
    @ [
        Asm.Label "loop";
        Asm.Insn (Asm.add (Reg.l 0) (Insn.Reg (Reg.l 1)) (Reg.l 0));
        Asm.Insn (Asm.add (Reg.l 1) (Insn.Imm 1) (Reg.l 1));
        Asm.Insn (Asm.cmp (Reg.l 1) (Insn.Imm 10));
        Asm.Insn (Asm.branch Cond.Le "loop");
      ]
    @ exit_with (Reg.l 0)
  in
  let _, code, _ = run_program items [] in
  check_int "sum 1..10" 55 code

let test_cpu_call_save_restore () =
  (* main calls double(21) which returns its argument doubled. *)
  let items =
    [
      Asm.Insn (Asm.mov (Insn.Imm 21) (Reg.o 0));
      Asm.Insn (Asm.call "double");
      Asm.Insn Asm.nop;
      Asm.Insn (Asm.trap 0);
      Asm.Label "double";
      Asm.Insn (Asm.save 96);
      Asm.Insn (Asm.add (Reg.i_ 0) (Insn.Reg (Reg.i_ 0)) (Reg.i_ 0));
      Asm.Insn Asm.ret;
      Asm.Insn Asm.restore;
    ]
  in
  (* Note: ret jumps to %i7+8, skipping the padding nop after call; the
     restore after ret is never executed in this ordering (ret;restore
     is the usual SPARC idiom where restore sits in the delay slot — we
     instead restore before ret below). *)
  let items =
    List.map
      (fun item ->
        match item with
        | Asm.Insn (Insn.Jmpl _) -> item
        | _ -> item)
      items
  in
  (* Rewrite: use restore before ret to match no-delay-slot semantics. *)
  let items =
    [
      Asm.Insn (Asm.mov (Insn.Imm 21) (Reg.o 0));
      Asm.Insn (Asm.call "double");
      Asm.Insn Asm.nop;
      Asm.Insn (Asm.trap 0);
      Asm.Label "double";
      Asm.Insn (Asm.save 96);
      Asm.Insn (Asm.add (Reg.i_ 0) (Insn.Reg (Reg.i_ 0)) (Reg.o 0));
      Asm.Insn (Insn.Restore { rs1 = Reg.o 0; op2 = Insn.Imm 0; rd = Reg.o 0 });
      Asm.Insn Asm.retl;
    ]
    |> fun l -> ignore items; l
  in
  let _, code, _ = run_program items [] in
  check_int "double(21)" 42 code

let test_cpu_output () =
  let items =
    Asm.insns
      [
        Asm.mov (Insn.Imm 123) (Reg.o 0);
        Asm.trap 1;
        Asm.mov (Insn.Imm (Char.code '\n')) (Reg.o 0);
        Asm.trap 2;
        Asm.mov (Insn.Imm 0) (Reg.o 0);
        Asm.trap 0;
      ]
  in
  let cpu, code, _ = run_program items [] in
  check_int "exit 0" 0 code;
  Alcotest.(check string) "output" "123\n" (Cpu.output cpu)

let test_cpu_sbrk () =
  let items =
    Asm.insns
      [
        Asm.mov (Insn.Imm 64) (Reg.o 0);
        Asm.trap 3;
        Asm.mov (Insn.Reg (Reg.o 0)) (Reg.l 0);
        Asm.mov (Insn.Imm 64) (Reg.o 0);
        Asm.trap 3;
        Asm.sub (Reg.o 0) (Insn.Reg (Reg.l 0)) (Reg.o 0);
        Asm.trap 0;
      ]
  in
  let _, code, _ = run_program items [] in
  check_int "sbrk spacing" 64 code

let test_cpu_store_hook () =
  let stores = ref [] in
  let items =
    Asm.insns
      [
        Asm.mov (Insn.Imm 7) (Reg.l 0);
      ]
    @ [ Asm.Set_label { label = "x"; offset = 0; rd = Reg.l 1 } ]
    @ Asm.insns
        [
          Asm.st (Reg.l 0) (Reg.l 1) (Insn.Imm 0);
          Asm.st ~width:Insn.Byte (Reg.l 0) (Reg.l 1) (Insn.Imm 5);
          Asm.mov (Insn.Imm 0) (Reg.o 0);
          Asm.trap 0;
        ]
  in
  let prog =
    { Asm.text = Asm.Label "main" :: items;
      data = [ { Asm.name = "x"; size = 8; init = [] } ];
      entry = "main" }
  in
  let image = Assembler.assemble prog in
  let cpu = Cpu.create image in
  Cpu.install_basic_services cpu;
  Cpu.set_store_hook cpu (fun _ ~addr ~width -> stores := (addr, width) :: !stores);
  ignore (Cpu.run cpu);
  let x = Option.get (Assembler.addr_of_label image "x") in
  check_bool "word store seen" true (List.mem (x, Insn.Word) !stores);
  check_bool "byte store seen" true (List.mem (x + 5, Insn.Byte) !stores)

let test_cpu_hook_order () =
  (* Hooks and probes fire strictly in registration order (the counted
     hook arrays and the per-pc probe slots both append), and
     registering many must stay cheap — the seed's list-append
     registration was quadratic. *)
  let fired = ref [] in
  let items =
    [ Asm.Set_label { label = "x"; offset = 0; rd = Reg.l 1 } ]
    @ Asm.insns
        [
          Asm.mov (Insn.Imm 7) (Reg.l 0);
          Asm.st (Reg.l 0) (Reg.l 1) (Insn.Imm 0);
          Asm.ld (Reg.l 1) (Insn.Imm 0) (Reg.l 2);
          Asm.mov (Insn.Imm 0) (Reg.o 0);
          Asm.trap 0;
        ]
  in
  let prog =
    { Asm.text = Asm.Label "main" :: items;
      data = [ { Asm.name = "x"; size = 4; init = [] } ];
      entry = "main" }
  in
  let image = Assembler.assemble prog in
  let cpu = Cpu.create image in
  Cpu.install_basic_services cpu;
  let n = 100 in
  for i = 1 to n do
    Cpu.set_store_hook cpu (fun _ ~addr:_ ~width:_ -> fired := ("s", i) :: !fired);
    Cpu.set_load_hook cpu (fun _ ~addr:_ ~width:_ -> fired := ("l", i) :: !fired);
    Cpu.add_probe cpu image.entry (fun _ -> fired := ("p", i) :: !fired)
  done;
  ignore (Cpu.run cpu);
  let order tag =
    List.rev (List.filter_map (fun (t, i) -> if t = tag then Some i else None) !fired)
  in
  let expect = List.init n (fun i -> i + 1) in
  Alcotest.(check (list int)) "store hooks in registration order" expect (order "s");
  Alcotest.(check (list int)) "load hooks in registration order" expect (order "l");
  Alcotest.(check (list int)) "probes in registration order" expect (order "p")

let test_cpu_patch () =
  let items =
    Asm.insns [ Asm.mov (Insn.Imm 1) (Reg.o 0); Asm.trap 0 ]
  in
  let prog = { Asm.text = Asm.Label "main" :: items; data = []; entry = "main" } in
  let image = Assembler.assemble prog in
  let cpu = Cpu.create image in
  Cpu.install_basic_services cpu;
  (* Patch the mov to load 99 instead. *)
  Cpu.patch cpu image.entry (Asm.mov (Insn.Imm 99) (Reg.o 0));
  check_int "patched exit code" 99 (Cpu.run cpu)

let test_cpu_probe () =
  let count = ref 0 in
  let items =
    Asm.insns
      [
        Asm.mov (Insn.Imm 0) (Reg.l 0);
      ]
    @ [
        Asm.Label "loop";
        Asm.Insn (Asm.add (Reg.l 0) (Insn.Imm 1) (Reg.l 0));
        Asm.Insn (Asm.cmp (Reg.l 0) (Insn.Imm 5));
        Asm.Insn (Asm.branch Cond.L "loop");
      ]
    @ Asm.insns [ Asm.mov (Insn.Imm 0) (Reg.o 0); Asm.trap 0 ]
  in
  let prog = { Asm.text = Asm.Label "main" :: items; data = []; entry = "main" } in
  let image = Assembler.assemble prog in
  let cpu = Cpu.create image in
  Cpu.install_basic_services cpu;
  let loop_addr = Option.get (Assembler.addr_of_label image "loop") in
  Cpu.add_probe cpu loop_addr (fun _ -> incr count);
  ignore (Cpu.run cpu);
  check_int "probe fired per iteration" 5 !count

let test_cpu_fuel () =
  let items = [ Asm.Label "spin"; Asm.Insn (Asm.ba "spin") ] in
  let prog = { Asm.text = Asm.Label "main" :: items; data = []; entry = "main" } in
  let image = Assembler.assemble prog in
  let cpu = Cpu.create image in
  (try
     ignore (Cpu.run ~fuel:1000 cpu);
     Alcotest.fail "expected Out_of_fuel"
   with Cpu.Out_of_fuel { executed } -> check_int "fuel" 1000 executed)

let test_cpu_cycles_accumulate () =
  let items =
    Asm.insns
      [ Asm.mov (Insn.Imm 0) (Reg.o 0); Asm.trap 0 ]
  in
  let _, _, _ = run_program items [] in
  let cpu, _, _ = run_program items [] in
  let s = Cpu.stats cpu in
  check_bool "cycles > instrs" true (s.Cpu.cycles > s.Cpu.instrs);
  check_int "instrs" 2 s.Cpu.instrs

let test_cpu_unhandled_trap () =
  let items = Asm.insns [ Asm.trap 77 ] in
  let prog = { Asm.text = Asm.Label "main" :: items; data = []; entry = "main" } in
  let image = Assembler.assemble prog in
  let cpu = Cpu.create image in
  (try
     ignore (Cpu.run cpu);
     Alcotest.fail "expected fault"
   with Cpu.Fault _ -> ())

(* --- block runner ------------------------------------------------------------ *)

(* Each case runs once on [run_to]'s blocks and once on the generic
   path: a no-op probe on every slot sends every step through the probe
   slow path and keeps every block from forming.  The two must end in
   the same stats, output and memory. *)

let probe_every_slot cpu (image : Assembler.image) =
  Array.iteri
    (fun i _ -> Cpu.add_probe cpu (image.Assembler.text_base + (4 * i)) ignore)
    image.Assembler.text

let show_stats (s : Cpu.stats) =
  Printf.sprintf
    "instrs=%d cycles=%d loads=%d stores=%d branches=%d traps=%d hits=%d \
     misses=%d spills=%d"
    s.Cpu.instrs s.Cpu.cycles s.Cpu.loads s.Cpu.stores s.Cpu.branches
    s.Cpu.traps s.Cpu.cache_hits s.Cpu.cache_misses s.Cpu.window_spills

let memory_words cpu =
  let words = ref [] in
  Memory.iter_written (Cpu.mem cpu) (fun a v -> words := (a, v) :: !words);
  !words

let check_same_machine what ~blocks ~generic =
  Alcotest.(check string) (what ^ ": stats") (show_stats (Cpu.stats generic))
    (show_stats (Cpu.stats blocks));
  Alcotest.(check string) (what ^ ": output") (Cpu.output generic)
    (Cpu.output blocks);
  check_bool (what ^ ": memory") true (memory_words generic = memory_words blocks)

let machine ?(generic = false) image =
  let cpu = Cpu.create image in
  Cpu.install_basic_services cpu;
  if generic then probe_every_slot cpu image;
  cpu

(* Two machines on one image, the second on the generic path. *)
let block_and_generic image = (machine image, machine ~generic:true image)

let assemble_main ?(data = []) items =
  Assembler.assemble { Asm.text = Asm.Label "main" :: items; data; entry = "main" }

(* A trap at the loop head patches the middle of the loop body into a
   branch to a stub at its 5th execution and restores it at its 20th,
   as MRS loop pre-header triggers do.  The body's block has formed by
   then, so it must re-form with each new shape.  Returns the image and
   the trap handler, which reads the loop counter, so a replay repeats
   it. *)
let repatched_loop () =
  let image =
    assemble_main
      (Asm.insns
         [ Asm.mov (Insn.Imm 0) (Reg.l 0); Asm.mov (Insn.Imm 0) (Reg.l 2);
           Asm.mov (Insn.Imm 0) (Reg.l 3) ]
      @ [ Asm.Label "loop" ]
      @ Asm.insns
          [ Asm.trap 9; Asm.add (Reg.l 0) (Insn.Imm 1) (Reg.l 0);
            Asm.add (Reg.l 2) (Insn.Reg (Reg.l 0)) (Reg.l 2) ]
      @ [ Asm.Label "site"; Asm.Insn (Asm.add (Reg.l 2) (Insn.Imm 3) (Reg.l 2));
          Asm.Label "back" ]
      @ Asm.insns
          [ Asm.add (Reg.l 2) (Insn.Imm 1) (Reg.l 2); Asm.cmp (Reg.l 0) (Insn.Imm 40);
            Asm.branch Cond.L "loop"; Asm.mov (Insn.Reg (Reg.l 3)) (Reg.o 0);
            Asm.trap 1; Asm.mov (Insn.Reg (Reg.l 2)) (Reg.o 0); Asm.trap 0 ]
      @ [ Asm.Label "stub" ]
      @ Asm.insns
          [ Asm.add (Reg.l 3) (Insn.Imm 1) (Reg.l 3);
            Asm.add (Reg.l 2) (Insn.Imm 3) (Reg.l 2); Asm.ba "back" ])
  in
  let site = Option.get (Assembler.addr_of_label image "site") in
  let stub = Option.get (Assembler.addr_of_label image "stub") in
  let original = Cpu.fetch_at (Cpu.create image) site in
  let trigger cpu =
    match Cpu.get cpu (Reg.l 0) with
    | 4 -> Cpu.patch cpu site (Insn.Branch { cond = Cond.A; target = Insn.Abs stub })
    | 19 -> Cpu.patch cpu site original
    | _ -> ()
  in
  (image, trigger)

let test_block_repatched_mid_loop () =
  let image, trigger = repatched_loop () in
  let blocks, generic = block_and_generic image in
  Cpu.on_trap blocks 9 trigger;
  Cpu.on_trap generic 9 trigger;
  (* 3 setup instructions, 7 per unpatched pass and 10 per patched one:
     checkpoint in pass 10, while the stub is patched in. *)
  Cpu.run_to blocks ~insn:(3 + (4 * 7) + (5 * 10));
  let cp = Cpu.checkpoint blocks in
  let code = Cpu.run blocks in
  check_int "exit code" (Cpu.run generic) code;
  Alcotest.(check string) "stub ran while patched in" "15" (Cpu.output blocks);
  check_same_machine "repatched loop" ~blocks ~generic;
  (* Rolling back restores the patched text under blocks formed on the
     unpatched one: they must re-form again. *)
  Cpu.rollback blocks cp;
  check_int "replayed exit code" code (Cpu.run blocks);
  check_same_machine "replay after rollback" ~blocks ~generic

let test_block_probe_added_mid_block () =
  (* Run until the loop body's block has formed, then probe a slot in
     its middle: the probe must fire on the very next pass. *)
  let image =
    assemble_main
      (Asm.insns [ Asm.mov (Insn.Imm 0) (Reg.l 0); Asm.mov (Insn.Imm 0) (Reg.l 1) ]
      @ [ Asm.Label "loop" ]
      @ Asm.insns
          [ Asm.add (Reg.l 0) (Insn.Imm 1) (Reg.l 0);
            Asm.add (Reg.l 1) (Insn.Reg (Reg.l 0)) (Reg.l 1) ]
      @ [ Asm.Label "mid"; Asm.Insn (Asm.add (Reg.l 1) (Insn.Imm 2) (Reg.l 1)) ]
      @ Asm.insns
          [ Asm.cmp (Reg.l 0) (Insn.Imm 30); Asm.branch Cond.L "loop" ]
      @ exit_with (Reg.l 1))
  in
  let mid = Option.get (Assembler.addr_of_label image "mid") in
  let blocks, generic = block_and_generic image in
  let fired =
    List.map
      (fun cpu ->
        (* 2 setup instructions, then 5 per pass: stop mid-pass 10. *)
        Cpu.run_to cpu ~insn:(2 + (5 * 9) + 1);
        let count = ref 0 in
        Cpu.add_probe cpu mid (fun _ -> incr count);
        ignore (Cpu.run cpu);
        !count)
      [ blocks; generic ]
  in
  Alcotest.(check (list int)) "probe fired on passes 10..30" [ 21; 21 ] fired;
  check_same_machine "probe added mid-block" ~blocks ~generic

let strided_source =
  "int a[16]; int s;\n\
   int f(int x) { return x * 3 + 1; }\n\
   int main() { int i; i = 0;\n\
   while (i < 60) { a[i & 15] = f(i) + a[(i + 5) & 15]; s = s + a[i & 15];\n\
   if ((i & 7) == 0) { print_int(s); } i = i + 1; }\n\
   return s & 255; }\n"

let test_block_strides () =
  let image = (Minic.Compile.compile_and_link strided_source).Minic.Compile.image in
  let generic = machine ~generic:true image in
  ignore (Cpu.run generic);
  List.iter
    (fun stride ->
      let cpu = machine image in
      while Cpu.halted cpu = None do
        let target = Cpu.instr_count cpu + stride in
        Cpu.run_to cpu ~insn:target;
        if Cpu.halted cpu = None then
          check_int (Printf.sprintf "stride %d stops on its target" stride) target
            (Cpu.instr_count cpu)
      done;
      check_same_machine (Printf.sprintf "stride %d" stride) ~blocks:cpu ~generic)
    [ 1; 3; 7 ]

let test_hook_contract () =
  (* Hooks run inside blocks, so one that halts the machine, patches
     text or moves the pc is refused at the access that ran it. *)
  let image =
    assemble_main
      ~data:[ { Asm.name = "x"; size = 4; init = [] } ]
      ([ Asm.Set_label { label = "x"; offset = 0; rd = Reg.l 1 } ]
      @ Asm.insns [ Asm.st (Reg.l 0) (Reg.l 1) (Insn.Imm 0); Asm.nop ]
      @ exit_with (Reg.l 0))
  in
  List.iter
    (fun (what, hook) ->
      let cpu = Cpu.create image in
      Cpu.install_basic_services cpu;
      Cpu.set_store_hook cpu hook;
      match Cpu.run cpu with
      | _ -> Alcotest.failf "a hook that %s was accepted" what
      | exception Invalid_argument _ -> ())
    [
      ("halts", fun cpu ~addr:_ ~width:_ -> Cpu.halt cpu 1);
      ("patches", fun cpu ~addr:_ ~width:_ -> Cpu.patch cpu image.entry Asm.nop);
      ("adds a probe", fun cpu ~addr:_ ~width:_ -> Cpu.add_probe cpu image.entry ignore);
      ("moves the pc", fun cpu ~addr:_ ~width:_ -> Cpu.set_pc cpu image.entry);
    ]

let test_block_load_evicts_own_line () =
  (* A load whose address maps onto the cache line of its own
     instruction evicts that line, so the next fetch from the line
     misses: a block must probe it, not skip it. *)
  let image =
    assemble_main
      (Asm.insns [ Asm.mov (Insn.Imm 3) (Reg.l 0) ]
      @ [ Asm.Label "ldpc"; Asm.Insn (Asm.ld (Reg.l 1) (Insn.Imm 0) (Reg.l 2)) ]
      @ Asm.insns
          [ Asm.add (Reg.l 0) (Insn.Imm 1) (Reg.l 0);
            Asm.add (Reg.l 0) (Insn.Imm 1) (Reg.l 0) ]
      @ exit_with (Reg.l 0))
  in
  let ldpc = Option.get (Assembler.addr_of_label image "ldpc") in
  let blocks, generic = block_and_generic image in
  List.iter
    (fun cpu ->
      (* One cache size above the load's own pc: same line index. *)
      Cpu.set cpu (Reg.l 1) (ldpc + (Cpu.config cpu).Cpu.cache_size);
      check_int "exit code" 5 (Cpu.run cpu))
    [ blocks; generic ];
  check_same_machine "self-evicting load" ~blocks ~generic

let test_block_fault_mid_block () =
  (* A misaligned load between straight-line instructions faults with
     its own pc, and the counts stop exactly where stepping stops. *)
  let image =
    assemble_main
      ~data:[ { Asm.name = "x"; size = 8; init = [] } ]
      ([ Asm.Set_label { label = "x"; offset = 0; rd = Reg.l 1 } ]
      @ Asm.insns
          [ Asm.mov (Insn.Imm 5) (Reg.l 0); Asm.add (Reg.l 0) (Insn.Imm 1) (Reg.l 0);
            Asm.st (Reg.l 0) (Reg.l 1) (Insn.Imm 0) ]
      @ [ Asm.Label "bad"; Asm.Insn (Asm.ld (Reg.l 1) (Insn.Imm 2) (Reg.l 2)) ]
      @ Asm.insns [ Asm.add (Reg.l 0) (Insn.Imm 1) (Reg.l 0) ]
      @ exit_with (Reg.l 0))
  in
  let bad = Option.get (Assembler.addr_of_label image "bad") in
  let blocks, generic = block_and_generic image in
  List.iter
    (fun cpu ->
      match Cpu.run cpu with
      | _ -> Alcotest.fail "expected a misaligned-load fault"
      | exception Cpu.Fault { pc; _ } -> check_int "fault pc" bad pc)
    [ blocks; generic ];
  check_int "instr_count" (Cpu.instr_count generic) (Cpu.instr_count blocks);
  check_same_machine "faulting load" ~blocks ~generic

(* Observed blocks.  The profiler and a sampler are installed on both
   machines; the reader returned reads back what they saw: exec counts
   (kind bits included), taken counts and the instants the sampler
   fired on. *)
let observe cpu (image : Assembler.image) ~every =
  let entry = image.Assembler.entry in
  let p =
    Profile.create ~text_base:image.Assembler.text_base
      ~info:(Cpu.profile_static cpu) ~functions:[ (entry, "main") ] ~entry ()
  in
  Cpu.profile_install cpu p;
  let samples = ref [] in
  Cpu.sample_install cpu ~every ~hook:(fun insn -> samples := insn :: !samples);
  fun () ->
    ( Array.to_list (Profile.exec_array p),
      Array.to_list (Profile.taken_array p),
      List.rev !samples )

let check_same_observed what ~blocks ~generic =
  let be, bt, bs = blocks () and ge, gt, gs = generic () in
  Alcotest.(check (list int)) (what ^ ": exec counts") ge be;
  Alcotest.(check (list int)) (what ^ ": taken counts") gt bt;
  Alcotest.(check (list int)) (what ^ ": sample instants") gs bs

let test_observed_fault_mid_block () =
  (* A misaligned load in the middle of a straight-line block, between
     two loops, under both observers at several sample periods: the
     counts and samples at the fault are those of stepping, and so are
     those of the run resumed past the faulting load. *)
  let loop name =
    [ Asm.Insn (Asm.mov (Insn.Imm 0) (Reg.l 0)); Asm.Label name ]
    @ Asm.insns
        [ Asm.add (Reg.l 0) (Insn.Imm 1) (Reg.l 0); Asm.st (Reg.l 0) (Reg.l 1) (Insn.Imm 0);
          Asm.add (Reg.l 3) (Insn.Reg (Reg.l 0)) (Reg.l 3); Asm.cmp (Reg.l 0) (Insn.Imm 9);
          Asm.branch Cond.L name ]
  in
  let image =
    assemble_main
      ~data:[ { Asm.name = "x"; size = 8; init = [] } ]
      ([ Asm.Set_label { label = "x"; offset = 0; rd = Reg.l 1 } ]
      @ Asm.insns [ Asm.mov (Insn.Imm 0) (Reg.l 3) ]
      @ loop "first"
      @ Asm.insns
          [ Asm.add (Reg.l 3) (Insn.Imm 1) (Reg.l 3); Asm.add (Reg.l 3) (Insn.Imm 2) (Reg.l 3) ]
      @ [ Asm.Label "bad"; Asm.Insn (Asm.ld (Reg.l 1) (Insn.Imm 2) (Reg.l 2)) ]
      @ Asm.insns
          [ Asm.add (Reg.l 3) (Insn.Imm 3) (Reg.l 3); Asm.add (Reg.l 3) (Insn.Imm 4) (Reg.l 3) ]
      @ loop "second"
      @ exit_with (Reg.l 3))
  in
  let bad = Option.get (Assembler.addr_of_label image "bad") in
  List.iter
    (fun every ->
      let what = Printf.sprintf "every %d" every in
      let blocks, generic = block_and_generic image in
      let blocks_seen = observe blocks image ~every
      and generic_seen = observe generic image ~every in
      List.iter
        (fun cpu ->
          match Cpu.run cpu with
          | _ -> Alcotest.fail "expected a misaligned-load fault"
          | exception Cpu.Fault { pc; _ } -> check_int "fault pc" bad pc)
        [ blocks; generic ];
      check_same_observed (what ^ " at the fault") ~blocks:blocks_seen
        ~generic:generic_seen;
      List.iter (fun cpu -> Cpu.set_pc cpu (bad + 4)) [ blocks; generic ];
      check_int (what ^ ": resumed exit") (Cpu.run generic) (Cpu.run blocks);
      check_same_observed (what ^ " resumed") ~blocks:blocks_seen
        ~generic:generic_seen;
      check_same_machine (what ^ " resumed") ~blocks ~generic)
    [ 1; 2; 3; 5; 7; 64 ]

let test_observed_patch_into_branch () =
  (* The repatched loop, profiled and sampled: the patched slot turns
     into a branch mid-block and back, so its kind bits and the blocks
     around it must follow, on the run and on its replay. *)
  let image, trigger = repatched_loop () in
  let blocks, generic = block_and_generic image in
  let blocks_seen = observe blocks image ~every:3
  and generic_seen = observe generic image ~every:3 in
  List.iter (fun cpu -> Cpu.on_trap cpu 9 trigger) [ blocks; generic ];
  let cps =
    List.map
      (fun cpu ->
        Cpu.run_to cpu ~insn:(3 + (4 * 7) + (5 * 10));
        let cp = Cpu.checkpoint cpu in
        ignore (Cpu.run cpu);
        cp)
      [ blocks; generic ]
  in
  check_same_observed "patched loop" ~blocks:blocks_seen ~generic:generic_seen;
  List.iter2
    (fun cpu cp ->
      Cpu.rollback cpu cp;
      ignore (Cpu.run cpu))
    [ blocks; generic ] cps;
  check_same_observed "replayed patched loop" ~blocks:blocks_seen
    ~generic:generic_seen;
  check_same_machine "profiled patched loop" ~blocks ~generic

(* --- large arrays ----------------------------------------------------------- *)

let test_arr_builders () =
  List.iter
    (fun n ->
      let l = List.init n (fun i -> ref i) in
      check_bool (Printf.sprintf "of_list %d" n) true (Arr.of_list l = Array.of_list l);
      let calls = ref [] in
      let a = Arr.mapi (fun i x -> calls := i :: !calls; !x + i) (Array.of_list l) in
      check_bool (Printf.sprintf "mapi %d" n) true (a = Array.init n (fun i -> 2 * i));
      check_bool (Printf.sprintf "mapi %d in index order" n) true
        (List.rev !calls = List.init n Fun.id))
    [ 0; 1; 255; 256; 257; 512; 1000 ]

(* Minor collections over 50 calls of [f].  Each major cycle also
   empties the minor heap, and how often cycles come depends on the
   heap the earlier tests left; a high [space_overhead] makes them rare,
   so what is counted is the collections [f] forces. *)
let minor_collections_over_50 f =
  let gc = Gc.get () in
  Gc.set { gc with Gc.space_overhead = 1000 };
  Fun.protect
    ~finally:(fun () -> Gc.set gc)
    (fun () ->
      let before = (Gc.quick_stat ()).Gc.minor_collections in
      for _ = 1 to 50 do
        ignore (Sys.opaque_identity (f ()))
      done;
      (Gc.quick_stat ()).Gc.minor_collections - before)

let test_no_forced_minor_gc () =
  (* Building an array of more than 256 elements around a freshly
     allocated first element forces a stop-the-world minor collection
     ({!Arr}).  gcc1.35's 730-word text would force one per call in
     Cpu.create (its closure array) and in the assembler. *)
  let spec = Option.get (Workloads.Spec.find "001.gcc1.35") in
  let prog =
    (Minic.Compile.compile spec.Workloads.Workload.source).Minic.Codegen.program
  in
  let image = Assembler.assemble prog in
  check_bool "text longer than 256 words" true
    (Array.length image.Assembler.text > 256);
  let n = minor_collections_over_50 (fun () -> Cpu.create image) in
  check_bool (Printf.sprintf "50 Cpu.create: %d minor collections, < 10" n) true (n < 10);
  let n = minor_collections_over_50 (fun () -> Assembler.assemble prog) in
  check_bool
    (Printf.sprintf "50 Assembler.assemble: %d minor collections, < 10" n)
    true (n < 10)


let suites =
  [
    ( "machine.memory",
      [
        Alcotest.test_case "words" `Quick test_memory_words;
        Alcotest.test_case "bytes and halves" `Quick test_memory_bytes;
        Alcotest.test_case "page offsets do not alias" `Quick test_memory_page_offsets;
        Alcotest.test_case "sign extension" `Quick test_memory_signed;
        QCheck_alcotest.to_alcotest prop_memory_model;
      ] );
    ( "machine.cache",
      [
        Alcotest.test_case "hits and conflicts" `Quick test_cache_basic;
        QCheck_alcotest.to_alcotest prop_cache_snapshots;
      ] );
    ( "machine.windows",
      [
        Alcotest.test_case "overlap" `Quick test_windows_overlap;
        Alcotest.test_case "g0" `Quick test_windows_g0;
        Alcotest.test_case "spill accounting" `Quick test_windows_spill;
        Alcotest.test_case "oscillation is free" `Quick test_windows_oscillation;
        Alcotest.test_case "40 deep" `Quick test_windows_deep;
        Alcotest.test_case "copy across depths" `Quick test_windows_copy_depths;
      ] );
    ( "machine.cpu",
      [
        Alcotest.test_case "arithmetic" `Quick test_cpu_arith;
        Alcotest.test_case "memory + set_label" `Quick test_cpu_memory_and_set;
        Alcotest.test_case "loop and branch" `Quick test_cpu_loop_and_branch;
        Alcotest.test_case "call/save/restore" `Quick test_cpu_call_save_restore;
        Alcotest.test_case "print traps" `Quick test_cpu_output;
        Alcotest.test_case "sbrk" `Quick test_cpu_sbrk;
        Alcotest.test_case "store hook" `Quick test_cpu_store_hook;
        Alcotest.test_case "hook registration order" `Quick test_cpu_hook_order;
        Alcotest.test_case "patching" `Quick test_cpu_patch;
        Alcotest.test_case "probes" `Quick test_cpu_probe;
        Alcotest.test_case "fuel" `Quick test_cpu_fuel;
        Alcotest.test_case "cycle accounting" `Quick test_cpu_cycles_accumulate;
        Alcotest.test_case "unhandled trap" `Quick test_cpu_unhandled_trap;
        Alcotest.test_case "chunked array builders" `Quick test_arr_builders;
        Alcotest.test_case "large texts force no minor collection" `Quick
          test_no_forced_minor_gc;
        Alcotest.test_case "block re-forms after a mid-loop patch" `Quick
          test_block_repatched_mid_loop;
        Alcotest.test_case "probe added inside a formed block" `Quick
          test_block_probe_added_mid_block;
        Alcotest.test_case "run_to strides 1, 3, 7 = one run" `Quick
          test_block_strides;
        Alcotest.test_case "mid-block fault = generic fault" `Quick
          test_block_fault_mid_block;
        Alcotest.test_case "a load evicting its own fetch line" `Quick
          test_block_load_evicts_own_line;
        Alcotest.test_case "observed mid-block fault = generic, and resumed"
          `Quick test_observed_fault_mid_block;
        Alcotest.test_case "profiled mid-block patch into a branch" `Quick
          test_observed_patch_into_branch;
        Alcotest.test_case "hooks may not reshape the run" `Quick
          test_hook_contract;
      ] );
  ]
