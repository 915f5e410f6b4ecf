(* The checkpoint/replay subsystem (DESIGN.md §9).

   Three layers of evidence, mirroring the acceptance criteria:

   1. Units: COW page snapshots really share unwritten pages and
      restore exactly, the per-window store summaries mark exactly the
      words each store width writes,
      [Cpu.diverges] names each component; the journal's
      exponential-thinning eviction keeps the endpoints and its byte
      accounting consistent.

   2. The determinism guard: replaying every checkpoint-to-checkpoint
      window of two real workloads (matrix300 and li) reaches a state
      equal to the checkpoint AND an identical [Cpu.stats] record at
      the target — with and without a watch armed during the
      re-execution (Price's invisibility property), and the guard
      *does* fire, naming what diverged, when a saboteur perturbs the
      replay.

   3. Retroactive queries: [last_write]/[write_history] answers for
      every global of four programs are checked against ground truth —
      a store hook logging every store to the global in a second,
      unrecorded run of the same session. *)

open Dbp

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* Record to the halt in one slice. *)
let record_all r =
  match Replay.record_slice r with
  | `Exited code -> code
  | `Out_of_fuel _ -> Alcotest.fail "recording ran out of fuel"

(* Instructions the session's replay engine has re-executed so far. *)
let replayed (s : Session.t) =
  Telemetry.get s.Session.telemetry Telemetry.Replayed_instrs

(* --- units: COW memory snapshots --------------------------------------------- *)

let test_memory_cow_sharing () =
  let open Machine in
  let mem = Memory.create () in
  Memory.write_word mem 0x1000 11;
  Memory.write_word mem 0x80_0000 22;
  let v0 = Memory.snapshot_cow mem in
  check_int "v0 pages" 2 (Memory.view_pages v0);
  (* Writing one page after the snapshot copies only that page. *)
  let copies0 = Memory.cow_copies mem in
  Memory.write_word mem 0x1004 33;
  Memory.write_word mem 0x1008 44;
  check_int "one COW copy for two writes to one page" (copies0 + 1)
    (Memory.cow_copies mem);
  let v1 = Memory.snapshot_cow mem in
  check_int "delta = 1 page" 1 (Memory.view_diff v0 v1);
  check_int "shared = 1 page" (Memory.view_pages v1 - 1) (Memory.view_diff v0 v1);
  (* The old view still reads the old contents. *)
  check_int "v0 old word" 0 (Memory.view_read_word v0 0x1004);
  check_int "v1 new word" 33 (Memory.view_read_word v1 0x1004);
  (* Restore v0: memory reads as at the first snapshot. *)
  Memory.restore_cow mem v0;
  check_int "restored word" 0 (Memory.read_word mem 0x1004);
  check_int "restored untouched page" 22 (Memory.read_word mem 0x80_0000);
  (* Writes after a restore do not bleed into retained views. *)
  Memory.write_word mem 0x1000 99;
  check_int "v0 immutable" 11 (Memory.view_read_word v0 0x1000);
  check_int "v1 immutable" 11 (Memory.view_read_word v1 0x1000)

let test_cpu_checkpoint_exact () =
  let src =
    "int g; int a[64];\n\
     int main() { int i; for (i = 0; i < 200; i = i + 1) { g = g + i; a[i % \
     64] = g; } return g % 100; }"
  in
  let linked = Minic.Compile.compile_and_link src in
  let cpu = Machine.Cpu.create linked.Minic.Compile.image in
  Machine.Cpu.install_basic_services cpu;
  (* Run halfway, checkpoint, note the stats. *)
  for _ = 1 to 500 do
    Machine.Cpu.step cpu
  done;
  let cp = Machine.Cpu.checkpoint cpu in
  let mid_stats = Machine.Cpu.stats cpu in
  (* Run to completion, then roll back: everything must be bit-exact,
     including the cache-model tags and hit/miss counters inside
     [Cpu.stats]. *)
  let code1 = Machine.Cpu.run cpu in
  let end_stats = Machine.Cpu.stats cpu in
  check_bool "the run moved away from the checkpoint" true
    (Machine.Cpu.diverges cpu cp <> None);
  Machine.Cpu.rollback cpu cp;
  check_bool "state restored" true (Machine.Cpu.diverges cpu cp = None);
  check_bool "stats restored exactly" true (Machine.Cpu.stats cpu = mid_stats);
  let code2 = Machine.Cpu.run cpu in
  check_int "same exit after rollback" code1 code2;
  check_bool "same end stats after rollback" true
    (Machine.Cpu.stats cpu = end_stats)

let snap_cpu_of src =
  let linked = Minic.Compile.compile_and_link src in
  let cpu = Machine.Cpu.create linked.Minic.Compile.image in
  Machine.Cpu.install_basic_services cpu;
  cpu

let snap_cpu () = snap_cpu_of "int main() { return 7; }"

(* The store summaries are what let queries skip windows, so each
   store width must mark exactly the words it writes.  With a
   checkpoint after every instruction, the window closed at insn [n]
   holds just the [n]th instruction.  Codegen never emits [std], so
   the program is hand-assembled. *)
let test_written_store_widths () =
  let open Sparc in
  let items =
    [ Asm.Set_label { label = "x"; offset = 0; rd = Reg.l 1 } ]
    @ Asm.insns
        [
          Asm.mov (Insn.Imm 7) (Reg.l 0);
          Asm.mov (Insn.Imm 9) (Reg.l 2);
          Asm.mov (Insn.Imm 11) (Reg.l 3);
          Asm.st (Reg.l 0) (Reg.l 1) (Insn.Imm 0);
          Asm.st (Reg.l 0) (Reg.l 1) (Insn.Imm 4);
          Asm.st ~width:Insn.Double (Reg.l 2) (Reg.l 1) (Insn.Imm 8);
          Asm.st ~width:Insn.Byte (Reg.l 0) (Reg.l 1) (Insn.Imm 17);
          Asm.st ~width:Insn.Half (Reg.l 0) (Reg.l 1) (Insn.Imm 22);
          Asm.ld (Reg.l 1) (Insn.Imm 0) (Reg.l 4);
          Asm.ld ~width:Insn.Double (Reg.l 1) (Insn.Imm 8) (Reg.l 6);
          Asm.ld ~width:Insn.Byte (Reg.l 1) (Insn.Imm 17) (Reg.l 5);
          Asm.mov (Insn.Imm 0) (Reg.o 0);
          Asm.trap 0;
        ]
  in
  let prog =
    { Asm.text = Asm.Label "main" :: items;
      data = [ { Asm.name = "x"; size = 24; init = [] } ];
      entry = "main" }
  in
  let image = Assembler.assemble prog in
  let cpu = Machine.Cpu.create image in
  Machine.Cpu.install_basic_services cpu;
  let x = Option.get (Assembler.addr_of_label image "x") in
  let r = Replay.create ~checkpoint_every:1 cpu in
  check_int "exit" 0 (record_all r);
  let written n =
    Machine.Written.words
      (Snapshot.written (Option.get (Journal.find (Replay.journal r) ~insn:n)))
  in
  (* Set_label (sethi + or) and the three moves come first. *)
  List.iteri
    (fun i (name, words) ->
      Alcotest.(check (list int)) name (List.map (( + ) x) words) (written (6 + i)))
    [
      ("st", [ 0 ]);
      ("st, next word", [ 4 ]);
      ("std marks two words", [ 8; 12 ]);
      ("stb", [ 16 ]);
      ("sth", [ 20 ]);
      ("ld", []);
      ("ldd", []);
      ("ldub", []);
    ];
  (* A sub-word range overlaps the word holding it, and nothing else. *)
  let at n = Snapshot.written (Option.get (Journal.find (Replay.journal r) ~insn:n)) in
  check_bool "stb: byte range inside the word" true
    (Machine.Written.overlaps (at 9) ~lo:(x + 18) ~hi:(x + 19));
  check_bool "stb: next word" false (Machine.Written.overlaps (at 9) ~lo:(x + 20) ~hi:(x + 24));
  check_bool "std: its second word alone" true
    (Machine.Written.overlaps (at 8) ~lo:(x + 13) ~hi:(x + 14));
  check_bool "empty range" false (Machine.Written.overlaps (at 8) ~lo:(x + 8) ~hi:(x + 8))

(* Summaries straddling a 128-byte block and a 4 KiB page boundary,
   marked directly. *)
let test_written_boundaries () =
  let summary addrs =
    let b = Machine.Written.builder () in
    List.iter (fun addr -> Machine.Written.add b ~addr ~width:Sparc.Insn.Word) addrs;
    Machine.Written.take b
  in
  let base = 0x40_0000 in
  let block_end = base + 0x7C and page_end = base + 0xFFC in
  let cases =
    [
      ("last word of a block, range across the block", [ block_end ], 0x7E, 0x82, true);
      ("last word of a block, range after it", [ block_end ], 0x80, 0x90, false);
      ("last word of a block, range before it", [ block_end ], 0x00, 0x7C, false);
      ("first word of the next block", [ base + 0x80 ], 0x7E, 0x82, true);
      ("first word of the next block, range before it", [ base + 0x80 ], 0x00, 0x80, false);
      ("range over many blocks", [ base + 0x200 ], 0x00, 0x400, true);
      ("range over many blocks, none marked", [ base + 0x400 ], 0x00, 0x400, false);
      ("last word of a page, range across the page", [ page_end ], 0xFFE, 0x1002, true);
      ("first word of the next page", [ base + 0x1000 ], 0xFFE, 0x1002, true);
      ("next page, range before it", [ base + 0x1000 ], 0xF00, 0x1000, false);
      ("range over two pages", [ base + 0x1800 ], 0x800, 0x2000, true);
    ]
  in
  List.iter
    (fun (name, addrs, lo, hi, expected) ->
      check_bool name expected
        (Machine.Written.overlaps (summary addrs) ~lo:(base + lo) ~hi:(base + hi)))
    cases;
  (* Heap addresses are negative as normalized words. *)
  let heap = Sparc.Word.norm 0xA000_0080 in
  Alcotest.(check (list int)) "heap word" [ heap ] (Machine.Written.words (summary [ heap ]));
  check_bool "heap range across a block" true
    (Machine.Written.overlaps (summary [ heap - 4 ]) ~lo:(heap - 2) ~hi:(heap + 2));
  (* The builder forgets what it handed out, and union merges blocks. *)
  let b = Machine.Written.builder () in
  Machine.Written.add b ~addr:page_end ~width:Sparc.Insn.Byte;
  ignore (Machine.Written.take b);
  check_int "taken marks are forgotten" 0 (Machine.Written.blocks (Machine.Written.take b));
  let u = Machine.Written.union (summary [ base; page_end ]) (summary [ base + 4; base + 0x80 ]) in
  Alcotest.(check (list int)) "union" [ base; base + 4; base + 0x80; page_end ]
    (Machine.Written.words u);
  check_int "union blocks" 3 (Machine.Written.blocks u)

(* The builder against a word-set model: every store width, addresses
   at and above 0x80000000 (negative as normalized words), page and
   block edges, an [std] crossing a block, and repeated [take]s.  Each
   [take] must list exactly the model's words, ascending as signed
   words, and answer [overlaps] as the model does. *)
type written_op = Store of int * Sparc.Insn.width | Take of (int * int) list

let show_written_op = function
  | Store (a, w) ->
    Printf.sprintf "%s 0x%x"
      (match w with
      | Sparc.Insn.Byte -> "stb"
      | Half -> "sth"
      | Word -> "st"
      | Double -> "std")
      (Sparc.Word.to_unsigned a)
  | Take ranges ->
    "take, ranges "
    ^ String.concat " "
        (List.map
           (fun (lo, hi) -> Printf.sprintf "0x%x+%d" (Sparc.Word.to_unsigned lo) (hi - lo))
           ranges)

let prop_written_model =
  let open QCheck.Gen in
  let near =
    let* base =
      oneofl [ 0; 0x40_0F80; 0x40_1000; 0x7FFF_FF80; 0x8000_0000; 0xA000_0FF8; 0xFFFF_FF80 ]
    and* off = int_range (-8) 40 in
    return (Sparc.Word.norm (base + (4 * off)))
  in
  let store =
    let* w = oneofl Sparc.Insn.[ Byte; Half; Word; Double ] and* a = near and* sub = int_bound 3 in
    let a =
      match w with
      | Sparc.Insn.Byte -> a + sub
      | Half -> a + (2 * (sub land 1))
      (* 4-aligned but not 8-aligned half the time: the second word may
         open the next block or page. *)
      | Word | Double -> a
    in
    return (Store (a, w))
  in
  let take =
    map
      (fun rs -> Take (List.map (fun (lo, n) -> (lo, lo + n)) rs))
      (list_size (int_range 1 4) (pair near (int_range 1 300)))
  in
  QCheck.Test.make ~name:"builder = word-set model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_written_op ops))
       ~shrink:QCheck.Shrink.list
       (list_size (int_range 1 60) (frequency [ (6, store); (1, take) ])))
    (fun ops ->
      let b = Machine.Written.builder () in
      let model = ref [] in
      let word a = Sparc.Word.norm a land lnot 3 in
      List.iter
        (function
          | Store (a, w) ->
            Machine.Written.add b ~addr:a ~width:w;
            model := word a :: !model;
            if w = Sparc.Insn.Double then model := word (a + 4) :: !model
          | Take ranges ->
            let got = Machine.Written.take b in
            let want = List.sort_uniq compare !model in
            model := [];
            if Machine.Written.words got <> want then
              QCheck.Test.fail_reportf "take: %d words, model %d"
                (List.length (Machine.Written.words got)) (List.length want);
            List.iter
              (fun (lo, hi) ->
                let want = List.exists (fun w -> w + 4 > lo && w < hi) want in
                if Machine.Written.overlaps got ~lo ~hi <> want then
                  QCheck.Test.fail_reportf "overlaps [0x%x, 0x%x): model %b" lo hi want)
              ranges)
        (ops @ [ Take [] ]);
      true)

(* [Cpu.diverges] names the first component that differs from the
   checkpoint, recorded value first. *)
let test_diverges_names_component () =
  let open Machine in
  let cpu = snap_cpu_of "int g; int main() { g = 4; return g; }" in
  Cpu.step cpu;
  let cp = Cpu.checkpoint cpu in
  check_bool "equal to its own checkpoint" true (Cpu.diverges cpu cp = None);
  let names ?(at = cp) label perturb expected actual =
    Cpu.rollback cpu at;
    perturb ();
    match Cpu.diverges cpu at with
    | Some (e, a) ->
      check_string (label ^ " expected") expected e;
      check_string (label ^ " actual") actual a
    | None -> Alcotest.failf "%s: no divergence reported" label
  in
  let pc = Cpu.pc cpu and brk = Cpu.brk cpu in
  names "pc" (fun () -> Cpu.set_pc cpu (pc + 4))
    (Printf.sprintf "pc=0x%x" pc)
    (Printf.sprintf "pc=0x%x" (pc + 4));
  names "brk" (fun () -> ignore (Cpu.sbrk cpu 8))
    (Printf.sprintf "brk=0x%x" brk)
    (Printf.sprintf "brk=0x%x" (brk + 8));
  names "halted" (fun () -> Cpu.halt cpu 3) "halted=running" "halted=3";
  names "output" (fun () -> Cpu.print_string cpu "hi")
    "output=0 bytes ending \"\"" "output=2 bytes ending \"hi\"";
  names "global register" (fun () -> Cpu.set cpu (Sparc.Reg.g 5) 77) "%g5=0"
    "%g5=77";
  names "window register"
    (fun () -> Cpu.set cpu (Sparc.Reg.l 3) 5)
    "window 0 %l3=0" "window 0 %l3=5";
  names "memory word"
    (fun () -> Memory.write_word (Cpu.mem cpu) 0xF0_0004 (-1))
    "word 0xf00004=0" "word 0xf00004=-1";
  (* Window 1 is the caller's.  Checkpoint one [save] deep; then step
     out, change the caller's %l3 and step back in.  The second [save]
     zeroes the current locals and outs again, as at the checkpoint. *)
  let exec insn =
    Cpu.patch cpu pc insn;
    Cpu.step cpu;
    Cpu.set_pc cpu pc
  in
  let save = Sparc.Insn.Save { rs1 = Sparc.Reg.g0; op2 = Sparc.Insn.Imm 0; rd = Sparc.Reg.g0 } in
  Cpu.rollback cpu cp;
  exec save;
  names ~at:(Cpu.checkpoint cpu) "outer window register"
    (fun () ->
      exec Sparc.Asm.restore;
      Cpu.set cpu (Sparc.Reg.l 3) 5;
      exec save)
    "window 1 %l3=0" "window 1 %l3=5"

(* --- units: journal + eviction ------------------------------------------------ *)


let test_journal_basics () =
  let cpu = snap_cpu () in
  let j = Journal.create ~interval:100 () in
  check_int "interval" 100 (Journal.interval j);
  let entries = ref [] in
  let take seq =
    let s = Snapshot.capture ~seq ~written:(Machine.Written.take (Machine.Written.builder ())) cpu in
    entries := Journal.record j s :: !entries;
    s
  in
  let s0 = take 0 in
  Machine.Cpu.step cpu;
  Machine.Cpu.step cpu;
  let s2 = take 1 in
  Machine.Cpu.step cpu;
  let s3 = take 2 in
  check_int "length" 3 (Journal.length j);
  check_bool "snapshots oldest-first" true
    (List.map Snapshot.insn (Journal.snapshots j)
    = [ Snapshot.insn s0; Snapshot.insn s2; Snapshot.insn s3 ]);
  check_bool "nearest 1 = s0" true
    (Journal.nearest j ~insn:1 = Some s0);
  check_bool "nearest 2 = s2" true (Journal.nearest j ~insn:2 = Some s2);
  check_bool "find exact only" true
    (Journal.find j ~insn:2 = Some s2 && Journal.find j ~insn:1 = None);
  check_bool "first snapshot full, rest deltas" true
    (match List.rev !entries with
    | e0 :: rest ->
      e0.Journal.delta_pages = Snapshot.pages s0
      && e0.Journal.shared_pages = 0
      && List.for_all
           (fun (e : Journal.entry) ->
             e.delta_pages + e.shared_pages = Snapshot.pages e.snap)
           rest
    | [] -> false);
  Alcotest.check_raises "interval must be positive"
    (Invalid_argument "Journal.create: interval must be positive") (fun () ->
      ignore (Journal.create ~interval:0 ()))

let test_journal_eviction () =
  (* Checkpoint a real recording under a byte budget tight enough to
     force eviction; the endpoints must survive, the retained byte
     accounting must stay consistent with a recount, and the evicted
     snapshots' pages must be re-attributed to their successors. *)
  let src =
    "int a[512]; int main() { int i; int k; for (k = 0; k < 40; k = k + 1) { \
     for (i = 0; i < 512; i = i + 1) { a[i] = a[i] + k + i; } } return 9; }"
  in
  let linked = Minic.Compile.compile_and_link src in
  let cpu = Machine.Cpu.create linked.Minic.Compile.image in
  Machine.Cpu.install_basic_services cpu;
  let r = Replay.create ~checkpoint_every:2_000 cpu in
  check_int "exit" 9 (record_all r);
  let unbounded = Journal.retained_bytes (Replay.journal r) in
  (* Same program again under a quarter of the unbounded footprint. *)
  let cpu2 = Machine.Cpu.create linked.Minic.Compile.image in
  Machine.Cpu.install_basic_services cpu2;
  let budget = unbounded / 4 in
  let r2 = Replay.create ~budget_bytes:budget ~checkpoint_every:2_000 cpu2 in
  let j2 = Replay.journal r2 in
  check_int "exit under budget" 9 (record_all r2);
  check_bool "evictions happened" true
    (Journal.length j2 < Journal.length (Replay.journal r));
  check_bool "budget respected" true (Journal.retained_bytes j2 <= budget);
  (* Endpoints retained. *)
  let snaps = Journal.snapshots j2 in
  check_int "first checkpoint retained" 0 (Snapshot.insn (List.hd snaps));
  check_int "halt checkpoint retained" (Replay.end_insn r2)
    (Snapshot.insn (List.nth snaps (List.length snaps - 1)));
  (* Byte accounting equals a from-scratch recount over the survivors. *)
  let recount, _ =
    List.fold_left
      (fun (acc, prev) s -> (acc + Snapshot.bytes ~prev s, Some s))
      (0, None) snaps
  in
  check_int "retained_bytes consistent after eviction" recount
    (Journal.retained_bytes j2);
  (* The thinned journal still answers queries correctly. *)
  let t = Replay.query r2 (Replay.Travel (Replay.end_insn r2 / 3)) in
  check_bool "travel through thinned journal" true (t >= 0);
  check_int "landed exactly" (Replay.end_insn r2 / 3)
    (Machine.Cpu.instr_count cpu2)

(* --- determinism guard over real workloads ------------------------------------ *)

let workload name =
  match Workloads.Spec.find name with
  | Some w -> w
  | None -> Alcotest.failf "unknown workload %s" name

let record_session ?checkpoint_budget ~interval (w : Workloads.Workload.t) =
  let options =
    { Instrument.default_options with
      strategy = Strategy.Bitmap_inline_registers;
      fortran_idiom = Workloads.Workload.fortran_idiom w }
  in
  let session =
    Session.create ~options ~checkpoint_every:interval ?checkpoint_budget
      w.Workloads.Workload.source
  in
  Mrs.enable session.Session.mrs;
  let code, _ = Session.run session in
  (match w.Workloads.Workload.expected_exit with
  | Some e -> check_int (w.name ^ " exit") e code
  | None -> ());
  let r = Option.get (Session.replay session) in
  (session, r)

(* Replay every checkpoint-to-checkpoint window under the determinism
   guard and compare the architectural stats at each target with the
   stats the recorder saw — once bare, through [replay_from], and once
   under an (invisible) watch over the whole data space, through a
   [History] cursor stopped on every window end.  [Cpu.stats] equality
   adds what the guard leaves out: the counters and the cache model's
   hit/miss history. *)
let check_all_windows (session : Session.t) r ~watch =
  let cpu = session.Session.cpu in
  let snaps = Array.of_list (Journal.snapshots (Replay.journal r)) in
  Alcotest.(check bool) "at least 5 checkpoints" true (Array.length snaps >= 5);
  (* Recorded truth at each checkpoint: restoring is exact (verified by
     [test_cpu_checkpoint_exact]), so collect stats via restore. *)
  let recorded_stats =
    Array.map
      (fun s ->
        Snapshot.restore cpu s;
        Machine.Cpu.stats cpu)
      snaps
  in
  let lo = 0x40_0000 and hi = 0x50_0000 in
  let c = Replay.cursor r (Replay.History { lo; hi }) in
  let windows = ref 0 in
  for i = 1 to Array.length snaps - 1 do
    let target = Snapshot.insn snaps.(i) in
    let gap = target - Snapshot.insn snaps.(i - 1) in
    let before = replayed session in
    (* The cursor's legs are exactly the windows that stored to the data
       space, oldest first, so [gap] fuel replays this window's leg and
       stops on its checkpoint. *)
    let replays =
      (not watch) || Machine.Written.overlaps (Snapshot.written snaps.(i)) ~lo ~hi
    in
    if not watch then ignore (Replay.replay_from r snaps.(i - 1) ~insn:target)
    else if replays then ignore (Replay.advance c ~fuel:gap);
    if replays then begin
      incr windows;
      check_int
        (Printf.sprintf "window %d replays its full gap" i)
        gap
        (replayed session - before);
      check_int (Printf.sprintf "window %d lands on its checkpoint" i) target
        (Machine.Cpu.instr_count cpu);
      (* The guard has already compared the state with the checkpoint;
         stats add counters and cache history. *)
      check_bool
        (Printf.sprintf "stats identical at checkpoint %d (watch=%b)" i watch)
        true
        (Machine.Cpu.stats cpu = recorded_stats.(i))
    end
  done;
  check_bool "at least 4 windows replayed" true (!windows >= 4);
  if watch then
    check_bool "the cursor ends after the written windows" true
      (match Replay.advance c ~fuel:1 with Replay.Done _ -> true | Replay.More -> false)

let test_determinism_matrix300 () =
  let session, r = record_session ~interval:25_000 (workload "030.matrix300") in
  check_all_windows session r ~watch:false;
  check_all_windows session r ~watch:true

let test_determinism_li () =
  let session, r = record_session ~interval:50_000 (workload "022.li") in
  check_all_windows session r ~watch:false;
  check_all_windows session r ~watch:true

(* What a recorded run keeps: 022.li watched at the replay sessions'
   optimization level, a checkpoint every 10,000 instructions.  Frozen
   pages are packed and clean cache-tag chunks shared, so the journal
   retains under 4.5 MB of host memory (a full 8 KiB copy per written
   page and 16 KiB of tags per checkpoint came to 6.5 MB).  The model
   accounting is pinned: host-side packing moves none of it. *)
let test_journal_memory_li () =
  let w = workload "022.li" in
  let telemetry = Telemetry.create () in
  let session =
    Session.create
      ~options:{ Instrument.default_options with opt = Instrument.O_symbol }
      ~telemetry ~checkpoint_every:10_000 w.Workloads.Workload.source
  in
  let g =
    let out = Minic.Compile.compile w.Workloads.Workload.source in
    (List.hd (Sparc.Symtab.globals out.Minic.Codegen.symtab)).Sparc.Symtab.name
  in
  ignore (Debugger.watch (Debugger.create session) g);
  ignore (Session.run session);
  let journal = Replay.journal (Option.get (Session.replay session)) in
  Gc.full_major ();
  let bytes = Obj.reachable_words (Obj.repr journal) * (Sys.word_size / 8) in
  check_bool
    (Printf.sprintf "journal retains %d bytes, at most 4.5 MB" bytes)
    true (bytes <= 4_500_000);
  List.iter
    (fun (name, counter, pinned) ->
      check_int name pinned (Telemetry.get telemetry counter))
    [
      ("checkpoint bytes", Telemetry.Checkpoint_bytes, 4_186_256);
      ("pages copied", Telemetry.Checkpoint_pages_copied, 509);
      ("pages shared", Telemetry.Checkpoint_pages_shared, 488);
    ]

(* Replay the first window under a saboteur: the guard must fire at
   the window's checkpoint.  Returns what it named, recorded first. *)
let violation r snaps =
  match Replay.replay_from r snaps.(0) ~insn:(Snapshot.insn snaps.(1)) with
  | _ -> Alcotest.fail "guard did not fire on a perturbed replay"
  | exception Replay.Determinism_violation { insn; expected; actual } ->
    check_int "violation at the window's checkpoint" (Snapshot.insn snaps.(1))
      insn;
    (expected, actual)

let test_guard_fires_on_divergence () =
  (* A saboteur store hook perturbs simulated memory during replay
     only: the state at the target checkpoint can no longer match. *)
  let session, r = record_session ~interval:10_000 (workload "030.matrix300") in
  let cpu = session.Session.cpu in
  let sabotage = ref false in
  Machine.Cpu.set_store_hook cpu (fun cpu ~addr:_ ~width:_ ->
      if !sabotage then
        Machine.Memory.write_word (Machine.Cpu.mem cpu) 0xF0_0000 0xDEAD);
  let snaps = Array.of_list (Journal.snapshots (Replay.journal r)) in
  sabotage := true;
  let expected, actual = violation r snaps in
  check_string "recorded word named" "word 0xf00000=0" expected;
  check_string "replayed word named" "word 0xf00000=57005" actual;
  sabotage := false;
  (* ...and with the saboteur off the same window replays clean. *)
  ignore (Replay.replay_from r snaps.(0) ~insn:(Snapshot.insn snaps.(1)))

(* Saboteurs for the other components: a control probe on the window's
   last replayed instruction perturbs a register or the output buffer
   just before it runs, and that instruction leaves the perturbation in
   place.  A probe, not an observer: replay pauses the sampler. *)
let test_guard_fires_on_registers_and_output () =
  let session, r = record_session ~interval:10_000 (workload "030.matrix300") in
  let cpu = session.Session.cpu in
  let snaps = Array.of_list (Journal.snapshots (Replay.journal r)) in
  let target = Snapshot.insn snaps.(1) in
  ignore (Session.time_travel session ~insn:(target - 1));
  let perturb = ref ignore in
  Machine.Cpu.add_probe cpu (Machine.Cpu.pc cpu) (fun cpu ->
      if Machine.Cpu.instr_count cpu = target - 1 then !perturb ());
  let sabotage ~names p =
    perturb := p;
    let expected, actual = violation r snaps in
    perturb := ignore;
    List.iter
      (fun s ->
        check_bool (Printf.sprintf "%S names %s" s names) true
          (String.starts_with ~prefix:names s))
      [ expected; actual ];
    check_bool "recorded and replayed differ" true (expected <> actual)
  in
  sabotage ~names:"%g5=" (fun () ->
      Machine.Cpu.set cpu (Sparc.Reg.g 5) (Machine.Cpu.get cpu (Sparc.Reg.g 5) + 1));
  sabotage ~names:"window 0 %l0=" (fun () ->
      Machine.Cpu.set cpu (Sparc.Reg.l 0) (Machine.Cpu.get cpu (Sparc.Reg.l 0) + 1));
  sabotage ~names:"output=" (fun () ->
      Machine.Cpu.print_string cpu "!");
  ignore (Replay.replay_from r snaps.(0) ~insn:target)

(* --- retroactive queries vs full-trace ground truth --------------------------- *)

type gt_hit = { g_insn : int; g_pc : int; g_addr : int; g_old : int; g_new : int }

let gt_of_hit (h : Replay.hit) =
  { g_insn = h.h_insn; g_pc = h.h_pc; g_addr = h.h_addr; g_old = h.h_old;
    g_new = h.h_new }

let show_hit = function
  | None -> "none"
  | Some g ->
    Printf.sprintf "insn %d pc 0x%x word 0x%x %d -> %d" g.g_insn g.g_pc g.g_addr
      g.g_old g.g_new

let check_hit label expected got =
  if expected <> got then
    Alcotest.failf "%s: expected %s, got %s" label (show_hit expected)
      (show_hit got)

let check_hits label expected got =
  check_int (label ^ " length") (List.length expected) (List.length got);
  List.iteri
    (fun i (e, g) -> check_hit (Printf.sprintf "%s #%d" label i) (Some e) (Some g))
    (List.combine expected got)

let last_of l = List.fold_left (fun _ x -> Some x) None l

(* [w] at [opt] with [var] watched through the debugger — so loop
   pre-headers patch checks in and out exactly as a `dbreak --watch`
   run does — and [var]'s footprint [[lo, hi)].  Not yet run. *)
let watched_session ?checkpoint_every ?checkpoint_budget ?(check_aliases = false)
    ~opt (w : Workloads.Workload.t) var =
  let options =
    { Instrument.default_options with
      strategy = Strategy.Bitmap_inline_registers;
      opt;
      check_aliases;
      fortran_idiom = Workloads.Workload.fortran_idiom w }
  in
  let session =
    Session.create ~options ?checkpoint_every ?checkpoint_budget
      w.Workloads.Workload.source
  in
  ignore (Debugger.watch (Debugger.create session) var);
  let lo =
    match Session.resolve_addr session var with
    | Some a -> a
    | None -> Alcotest.failf "no global %s in %s" var w.name
  in
  let hi =
    lo + Sparc.Symtab.size_bytes
           (Option.get (Sparc.Symtab.lookup session.Session.symtab var))
  in
  (session, lo, hi)

let run_to_exit session (w : Workloads.Workload.t) =
  let code, _ = Session.run session in
  match w.expected_exit with
  | Some e -> check_int (w.name ^ " exit") e code
  | None -> ()

(* Log every store to the words of [[lo, hi)] ([lo], [hi] word-aligned)
   that [cpu] executes from now on; the result reads the log, oldest
   first. *)
let log_stores cpu ~lo ~hi =
  let read a = Machine.Memory.read_word (Machine.Cpu.mem cpu) a in
  let shadow = Hashtbl.create 64 in
  for i = 0 to ((hi - lo) / 4) - 1 do
    Hashtbl.replace shadow (lo + (4 * i)) (read (lo + (4 * i)))
  done;
  let log = ref [] in
  Machine.Cpu.set_store_hook cpu (fun cpu ~addr ~width ->
      let word = ref (addr land lnot 3) in
      while !word < addr + Sparc.Insn.width_bytes width do
        if !word >= lo && !word < hi then begin
          let nv = read !word in
          log :=
            { g_insn = Machine.Cpu.instr_count cpu; g_pc = Machine.Cpu.pc cpu;
              g_addr = !word; g_old = Hashtbl.find shadow !word; g_new = nv }
            :: !log;
          Hashtbl.replace shadow !word nv
        end;
        word := !word + 4
      done);
  fun () -> List.rev !log

(* The log entries a watch on [[lo, hi)] reports: words overlapping it. *)
let within ~lo ~hi = List.filter (fun g -> g.g_addr + 4 > lo && g.g_addr < hi)

(* [last_write] and [write_history] of [r] over [[lo, hi)] against
   [truth] narrowed to the range. *)
let check_range label r truth ~lo ~hi =
  let truth = within ~lo ~hi truth in
  check_hit (label ^ " last write") (last_of truth)
    (Option.map gt_of_hit (Replay.query r (Replay.Last_write { lo; hi })));
  check_hits (label ^ " history") truth
    (List.map gt_of_hit (Replay.query r (Replay.History { lo; hi })))

(* The full-trace answer, independent of recording: a second session
   with the same options and watch but no journal logs every store to
   [var]'s footprint as it happens.  Then record [w] the same way and
   check [last_write] over the footprint and over its first word, and
   the whole [write_history], against that log — which also checks
   that recording leaves the program's write trace unchanged.
   [sub_word] adds a range of two bytes inside the first word. *)
let check_queries_against_ground_truth ?checkpoint_budget ?(opt = Instrument.O0)
    ?check_aliases ?(sub_word = false) ~interval (wname, var) =
  let w = workload wname in
  let plain, lo, hi = watched_session ?check_aliases ~opt w var in
  let log = log_stores plain.Session.cpu ~lo ~hi in
  run_to_exit plain w;
  let truth = log () in
  let session, _, _ =
    watched_session ~checkpoint_every:interval ?checkpoint_budget ?check_aliases
      ~opt w var
  in
  run_to_exit session w;
  let cpu = session.Session.cpu in
  let r = Option.get (Session.replay session) in
  if checkpoint_budget <> None then
    check_bool "eviction happened" true
      (Telemetry.get session.Session.telemetry Telemetry.Checkpoint_evictions > 0);
  let label = Printf.sprintf "%s %s" w.name var in
  check_hit (label ^ " last write") (last_of truth)
    (Option.map gt_of_hit (Replay.query r (Replay.Last_write { lo; hi })));
  (match Session.last_write session ~addr:lo with
  | None -> check_hit (label ^ " first-word last write") None None
  | Some { Session.wr_hit = h; wr_write_type } ->
    check_hit (label ^ " first-word last write")
      (last_of (List.filter (fun g -> g.g_addr = lo) truth))
      (Some (gt_of_hit h));
    check_bool "write site classified" true (wr_write_type <> None));
  check_hits (label ^ " history") truth
    (List.map
       (fun { Session.wr_hit = h; _ } -> gt_of_hit h)
       (Session.write_history session ~lo ~hi));
  if sub_word then
    check_range (label ^ " bytes 1-2") r truth ~lo:(lo + 1) ~hi:(lo + 3);
  (* Queries end back at the recorded end state. *)
  check_int "machine at recorded end" (Replay.end_insn r)
    (Machine.Cpu.instr_count cpu);
  truth

let test_last_write_matrix300 () =
  let truth =
    check_queries_against_ground_truth ~interval:25_000 ("030.matrix300", "c")
  in
  check_bool "c is written" true (truth <> [])

let test_last_write_li () =
  let truth =
    check_queries_against_ground_truth ~interval:50_000 ("022.li", "mark_count")
  in
  check_bool "mark_count is written" true (truth <> [])

let test_queries_survive_eviction () =
  (* With a byte budget forcing eviction, windows get wider but the
     answers must not change. *)
  ignore
    (check_queries_against_ground_truth ~interval:5_000
       ~checkpoint_budget:200_000 ("030.matrix300", "c"))

(* Every global of the program, each in its own watched recording.  At
   O_full the watch makes loop pre-headers patch checks in during the
   run, which a replay must reproduce from the restored text; with
   [check_aliases] they also create and delete alias regions, which a
   replay must reproduce from the restored region table. *)
let every_global ?checkpoint_budget ?check_aliases ?sub_word ?(interval = 10_000)
    ~opt wname () =
  let globals =
    Sparc.Symtab.globals
      (Session.create (workload wname).Workloads.Workload.source).Session.symtab
  in
  check_bool "has globals" true (globals <> []);
  List.iter
    (fun (g : Sparc.Symtab.entry) ->
      ignore
        (check_queries_against_ground_truth ?checkpoint_budget ?check_aliases
           ?sub_word ~opt ~interval (wname, g.name)))
    globals

(* --- window skipping ------------------------------------------------------------ *)

(* A Mini-C program in an unrecorded session (for ground truth) or a
   recorded one, with the address of its global [var]. *)
let program_session ?checkpoint_every src var =
  let session = Session.create ?checkpoint_every src in
  (session, Option.get (Session.resolve_addr session var))

(* The window closed by the first checkpoint after [insn]. *)
let window_around r ~insn =
  let snaps = Array.of_list (Journal.snapshots (Replay.journal r)) in
  let i = ref 1 in
  while Snapshot.insn snaps.(!i) <= insn do
    incr i
  done;
  (snaps.(!i - 1), snaps.(!i))

let replayed_by session f =
  let before = replayed session in
  f ();
  replayed session - before

(* A host-side write is not a store: a window whose only write to the
   range is one is skipped, although it changed the range, and the
   answers still equal the ground truth.  [x] is written by the program
   in the first and last loop; the host writes [x[1]] in the middle
   one, which stores only to [y], on the same page. *)
let test_host_write_skipped () =
  let src =
    "int x[2]; int y; int main() { int i; for (i = 0; i < 50; i = i + 1) { \
     x[0] = x[0] + i; } for (i = 0; i < 500; i = i + 1) { y = y + i; } for (i \
     = 0; i < 50; i = i + 1) { x[0] = x[0] + 1; } return x[0] % 256; }"
  in
  let host_write session x =
    Machine.Memory.write_word (Machine.Cpu.mem session.Session.cpu) (x + 4) 77
  in
  let plain, x = program_session src "x" in
  let log = log_stores plain.Session.cpu ~lo:x ~hi:(x + 8) in
  let exit = Machine.Cpu.run plain.Session.cpu in
  (* The middle of the longest stretch without a store to [x]. *)
  let truth = log () in
  let _, gap_lo, gap_hi =
    List.fold_left
      (fun (prev, lo, hi) g ->
        if g.g_insn - prev > hi - lo then (g.g_insn, prev, g.g_insn)
        else (g.g_insn, lo, hi))
      (0, 0, 0) truth
  in
  let mid = (gap_lo + gap_hi) / 2 in
  let plain, _ = program_session src "x" in
  let log = log_stores plain.Session.cpu ~lo:x ~hi:(x + 8) in
  Machine.Cpu.run_to plain.Session.cpu ~insn:mid;
  host_write plain x;
  check_int "exit with the host write" exit (Machine.Cpu.run plain.Session.cpu);
  let truth = log () in
  let session, _ = program_session ~checkpoint_every:500 src "x" in
  let r = Option.get (Session.replay session) in
  (match Replay.record_slice ~fuel:mid r with
  | `Out_of_fuel _ -> ()
  | `Exited _ -> Alcotest.fail "exited before the host write");
  host_write session x;
  check_int "recorded exit" exit (record_all r);
  let start, stop = window_around r ~insn:mid in
  check_bool "the host write changed the range in its window" true
    (Machine.Memory.view_read_word (Snapshot.view start) (x + 4) = 0
    && Machine.Memory.view_read_word (Snapshot.view stop) (x + 4) = 77);
  check_bool "yet the window's summary misses the range" false
    (Machine.Written.overlaps (Snapshot.written stop) ~lo:x ~hi:(x + 8));
  check_range "x" r truth ~lo:x ~hi:(x + 8);
  check_int "x[1] alone: nothing replayed" 0
    (replayed_by session (fun () -> check_range "x[1]" r truth ~lo:(x + 4) ~hi:(x + 8)));
  let last = Option.get (last_of truth) in
  let start, stop = window_around r ~insn:(last.g_insn - 1) in
  check_int "last write replays one window"
    (Snapshot.insn stop - Snapshot.insn start)
    (replayed_by session (fun () -> ignore (Replay.query r (Replay.Last_write { lo = x; hi = x + 8 }))))

(* Queries over ranges straddling a 128-byte block or a 4 KiB page
   boundary inside an array written element by element. *)
let test_straddling_ranges () =
  let src =
    "int big[2048]; int main() { int i; for (i = 0; i < 2048; i = i + 1) { \
     big[i] = i + 1; } for (i = 1000; i < 1100; i = i + 3) { big[i] = 0; } \
     return 0; }"
  in
  let plain, a = program_session src "big" in
  let log = log_stores plain.Session.cpu ~lo:a ~hi:(a + 8192) in
  ignore (Machine.Cpu.run plain.Session.cpu);
  let truth = log () in
  let session, _ = program_session ~checkpoint_every:1_000 src "big" in
  let r = Option.get (Session.replay session) in
  ignore (record_all r);
  let page = (a / 4096 + 1) * 4096 in
  let block = page + 128 in
  List.iter
    (fun (name, lo, hi) -> check_range name r truth ~lo ~hi)
    [
      ("page boundary, bytes", page - 2, page + 2);
      ("page boundary, words", page - 8, page + 8);
      ("last word of a page", page - 4, page);
      ("block boundary, bytes", block - 1, block + 1);
      ("block boundary, blocks", block - 130, block + 130);
      ("rewritten words across a page", a + 4000, a + 4400);
    ]

(* Recording in slices of random fuel places the same checkpoints with
   the same summaries as recording in one shot, and answers the same. *)
let test_slicing_invariance () =
  let w = workload "030.matrix300" in
  let globals = [ "a"; "b"; "c" ] in
  let record ?checkpoint_budget rng =
    let session, _, _ =
      watched_session ~checkpoint_every:7_000 ?checkpoint_budget
        ~opt:Instrument.O_full w "c"
    in
    let r = Option.get (Session.replay session) in
    let code =
      match rng with
      | None -> record_all r
      | Some rng ->
        let rec go () =
          match Replay.record_slice ~fuel:(Random.State.int rng 20_000) r with
          | `Exited code -> code
          | `Out_of_fuel _ -> go ()
        in
        go ()
    in
    let j = Replay.journal r in
    let snaps = Journal.snapshots j in
    (* A sliced recording is also queried in slices: a cursor advanced
       by random fuel answers, restores and replays as one advanced to
       its end. *)
    let query (type a) (goal : a Replay.goal) : a =
      match rng with
      | None -> Replay.query r goal
      | Some rng ->
        let c = Replay.cursor r goal in
        let rec go () =
          match Replay.advance c ~fuel:(1 + Random.State.int rng 20_000) with
          | Replay.Done a -> a
          | Replay.More -> go ()
        in
        go ()
    in
    let answers =
      List.map
        (fun g ->
          let lo = Option.get (Session.resolve_addr session g) in
          ( Option.map gt_of_hit (query (Replay.Last_write { lo; hi = lo + 8 })),
            List.map gt_of_hit (query (Replay.History { lo; hi = lo + 8 })),
            query (Replay.Travel (Replay.end_insn r / 3)) ))
        globals
    in
    let count = Telemetry.get session.Session.telemetry in
    let answers =
      (answers, count Telemetry.Restores, count Telemetry.Replayed_instrs)
    in
    ( (code, Replay.end_insn r, count Telemetry.Checkpoint_evictions),
      ( count Telemetry.Checkpoint_pages_copied,
        count Telemetry.Checkpoint_pages_shared,
        count Telemetry.Checkpoint_bytes,
        Journal.retained_bytes j ),
      List.map Snapshot.insn snaps,
      List.map (fun s -> Machine.Written.words (Snapshot.written s)) snaps,
      answers )
  in
  List.iter
    (fun checkpoint_budget ->
      let one_shot = record ?checkpoint_budget None in
      List.iter
        (fun seed ->
          let sliced =
            record ?checkpoint_budget (Some (Random.State.make [| seed |]))
          in
          let run, bytes, insns, summaries, answers = one_shot in
          let run', bytes', insns', summaries', answers' = sliced in
          let what = Printf.sprintf "seed %d, budget %b" seed (checkpoint_budget <> None) in
          check_bool (what ^ ": exit, end, evictions") true (run = run');
          check_bool (what ^ ": page accounting") true (bytes = bytes');
          Alcotest.(check (list int)) (what ^ ": checkpoints") insns insns';
          check_bool (what ^ ": summaries") true (summaries = summaries');
          check_bool (what ^ ": answers") true (answers = answers'))
        [ 1; 2 ])
    [ None; Some 150_000 ]

(* Under a tight budget every retained checkpoint's summary is the
   union of the unthinned windows it now spans. *)
let test_eviction_merges_summaries () =
  let w = workload "030.matrix300" in
  let record ?checkpoint_budget () =
    let session, _, _ =
      watched_session ~checkpoint_every:5_000 ?checkpoint_budget
        ~opt:Instrument.O_symbol w "c"
    in
    run_to_exit session w;
    Option.get (Session.replay session)
  in
  let full = record () and thin = record ~checkpoint_budget:150_000 () in
  check_bool "eviction happened" true
    (Journal.length (Replay.journal thin) < Journal.length (Replay.journal full));
  let windows = Journal.snapshots (Replay.journal full) in
  let kept = Array.of_list (Journal.snapshots (Replay.journal thin)) in
  let widest = ref 0 in
  for i = 1 to Array.length kept - 1 do
    let lo = Snapshot.insn kept.(i - 1) and hi = Snapshot.insn kept.(i) in
    let absorbed =
      List.filter (fun s -> Snapshot.insn s > lo && Snapshot.insn s <= hi) windows
    in
    check_int (Printf.sprintf "checkpoint at %d placed as unthinned" hi) hi
      (Snapshot.insn (List.nth absorbed (List.length absorbed - 1)));
    widest := max !widest (List.length absorbed);
    Alcotest.(check (list int))
      (Printf.sprintf "summary of (%d, %d]" lo hi)
      (Machine.Written.words
         (List.fold_left
            (fun acc s -> Machine.Written.union acc (Snapshot.written s))
            (Machine.Written.take (Machine.Written.builder ())) absorbed))
      (Machine.Written.words (Snapshot.written kept.(i)))
  done;
  check_bool "some window absorbed several" true (!widest > 2)

(* --- session plumbing --------------------------------------------------------- *)

let test_session_without_journal () =
  let session = Session.create "int main() { return 3; }" in
  let _ = Session.run session in
  check_bool "no replay engine" true (Session.replay session = None);
  Alcotest.check_raises "last_write refused"
    (Invalid_argument
       "Session.last_write: session was created without ?checkpoint_every — \
        no journal") (fun () ->
      ignore (Session.last_write session ~addr:0x40_0000))

let test_resolve_addr_forms () =
  let session = Session.create "int g; int main() { g = 5; return g; }" in
  let g = Option.get (Session.resolve_addr session "g") in
  check_bool "global resolves to data space" true (g >= 0x40_0000);
  check_bool "hex form" true
    (Session.resolve_addr session (Printf.sprintf "0x%x" g) = Some g);
  check_bool "decimal form" true
    (Session.resolve_addr session (string_of_int g) = Some g);
  check_bool "unknown name" true (Session.resolve_addr session "zzz" = None)

let test_replay_observability () =
  (* Checkpoint counters land in the session registry; replay lifecycle
     events land in the audit journal, whose JSON (dbp-audit/2) parses
     back to what was written. *)
  let telemetry = Telemetry.create () in
  let audit = Audit.create () in
  let options =
    { Instrument.default_options with
      strategy = Strategy.Bitmap_inline_registers }
  in
  let session =
    Session.create ~options ~telemetry ~audit ~checkpoint_every:200
      "int g; int main() { int i; for (i = 0; i < 500; i = i + 1) { g = g + \
       i; } return g % 256; }"
  in
  Mrs.enable session.Session.mrs;
  let _ = Session.run session in
  let r = Option.get (Session.replay session) in
  let taken = Telemetry.get telemetry Telemetry.Checkpoints_taken in
  check_int "checkpoints counted = journal length"
    (Journal.length (Replay.journal r))
    taken;
  check_bool "pages accounted" true
    (Telemetry.get telemetry Telemetry.Checkpoint_bytes > 0);
  let g = Option.get (Session.resolve_addr session "g") in
  (match Session.last_write session ~addr:g with
  | Some { Session.wr_hit = h; _ } -> check_bool "hit found" true (h.Replay.h_new > 0)
  | None -> Alcotest.fail "no hit");
  check_bool "restores counted" true (Telemetry.get telemetry Telemetry.Restores > 0);
  (* Audit: checkpoint_taken events recorded and well-formed JSON. *)
  let rep = Audit.report audit in
  let count k =
    List.length
      (List.filter (fun (e : Audit.replay_event) -> e.rp_kind = k) rep.Audit.a_replay)
  in
  check_int "one checkpoint_taken event per checkpoint" taken
    (count Audit.Checkpoint_taken);
  check_bool "restore events present" true (count Audit.State_restored > 0);
  check_bool "replay_finished events present" true
    (count Audit.Replay_finished > 0);
  (* Every replayed leg journals its length: their sum recounts the
     registry's replayed instructions. *)
  check_int "replayed instrs = sum over replay_finished events"
    (List.fold_left
       (fun acc (e : Audit.replay_event) ->
         if e.rp_kind = Audit.Replay_finished then
           acc + Scanf.sscanf e.rp_detail "replayed=%d" Fun.id
         else acc)
       0 rep.Audit.a_replay)
    (Telemetry.get telemetry Telemetry.Replayed_instrs);
  let json = Audit.to_json_string rep in
  check_bool "audit JSON parses back to what was written" true
    (Export.json_to_string (Export.json_of_string json) = json)

(* --- window marks against an independent store log --------------------- *)

(* Every checkpoint's marks are exactly the words an independent store
   hook saw stored in its window: [std] two words, [st], [stb] and
   [sth] one each.  [log] is that hook's [(insn, words)] list, newest
   first; the window of a checkpoint at insn [n] after one at [m] holds
   the stores counted in [(m, n]]. *)
let marks_match_log journal log =
  let word a = Sparc.Word.norm a land lnot 3 in
  let rec windows = function
    | prev :: (cur :: _ as rest) ->
      let lo = Snapshot.insn prev and hi = Snapshot.insn cur in
      let want =
        List.sort_uniq compare
          (List.concat_map
             (fun (insn, words) ->
               if insn > lo && insn <= hi then List.map word words else [])
             log)
      in
      Machine.Written.words (Snapshot.written cur) = want && windows rest
    | _ -> true
  in
  windows (Journal.snapshots journal)

let log_store_words cpu =
  let log = ref [] in
  Machine.Cpu.set_store_hook cpu (fun cpu ~addr ~width ->
      let words =
        match width with
        | Sparc.Insn.Double -> [ addr; addr + 4 ]
        | Sparc.Insn.Word | Sparc.Insn.Byte | Sparc.Insn.Half -> [ addr ]
      in
      log := (Machine.Cpu.instr_count cpu, words) :: !log);
  log

(* A loop over a random straight-line body of stores of every width
   and ALU steps, its base moving 8 bytes per iteration across a
   two-page array, so blocks are long and a checkpoint interval of a
   few instructions ends inside them. *)
let gen_mark_program =
  let open QCheck.Gen in
  let open Sparc in
  let store =
    let* width = oneofl Insn.[ Word; Double; Byte; Half ] in
    let* off = int_range 0 4088 in
    let off = off land lnot (Insn.width_bytes width - 1) in
    let rd = if width = Insn.Double then Reg.l 2 else Reg.l 0 in
    return (Asm.st ~width rd (Reg.l 1) (Insn.Imm off))
  in
  let step =
    let* k = int_range 1 900 in
    return (Asm.add (Reg.l 0) (Insn.Imm k) (Reg.l 0))
  in
  let* body = list_size (int_range 1 14) (frequency [ (3, store); (1, step) ]) in
  let* iterations = int_range 1 30 in
  return
    ( {
        Asm.text =
          [ Asm.Label "main"; Asm.Set_label { label = "x"; offset = 0; rd = Reg.l 1 } ]
          @ Asm.insns
              [
                Asm.add (Reg.l 1) (Insn.Imm 7) (Reg.l 1);
                Asm.and_ (Reg.l 1) (Insn.Imm (-8)) (Reg.l 1);
                Asm.mov (Insn.Imm 5) (Reg.l 0);
                Asm.mov (Insn.Imm 9) (Reg.l 2);
                Asm.mov (Insn.Imm 11) (Reg.l 3);
                Asm.mov (Insn.Imm 0) (Reg.l 7);
              ]
          @ [ Asm.Label "loop" ]
          @ Asm.insns
              (body
              @ [
                  Asm.add (Reg.l 1) (Insn.Imm 8) (Reg.l 1);
                  Asm.add (Reg.l 7) (Insn.Imm 1) (Reg.l 7);
                  Asm.cmp (Reg.l 7) (Insn.Imm iterations);
                  Asm.branch Cond.L "loop";
                  Asm.mov (Insn.Imm 0) (Reg.o 0);
                  Asm.trap 0;
                ]);
        data = [ { Asm.name = "x"; size = 8192 + 256; init = [] } ];
        entry = "main";
      },
      List.length body )

let prop_marks_random_asm =
  QCheck.Test.make ~name:"random store loops: window marks == store log" ~count:150
    (QCheck.make
       ~print:(fun ((_, n), every) -> Printf.sprintf "%d-insn body, every %d" n every)
       QCheck.Gen.(pair gen_mark_program (int_range 1 40)))
    (fun ((prog, _), every) ->
      let cpu = Machine.Cpu.create (Sparc.Assembler.assemble prog) in
      Machine.Cpu.install_basic_services cpu;
      let r = Replay.create ~checkpoint_every:every cpu in
      let log = log_store_words cpu in
      ignore (record_all r);
      marks_match_log (Replay.journal r) !log)

let suites =
  [
    ( "replay.snapshot",
      [
        Alcotest.test_case "COW sharing + exact restore" `Quick
          test_memory_cow_sharing;
        Alcotest.test_case "cpu checkpoint is bit-exact" `Quick
          test_cpu_checkpoint_exact;
        Alcotest.test_case "written: each store width marks its words" `Quick
          test_written_store_widths;
        Alcotest.test_case "written: block and page boundaries" `Quick
          test_written_boundaries;
        QCheck_alcotest.to_alcotest prop_written_model;
        QCheck_alcotest.to_alcotest prop_marks_random_asm;
        Alcotest.test_case "diverges names each component" `Quick
          test_diverges_names_component;
      ] );
    ( "replay.journal",
      [
        Alcotest.test_case "record/nearest/find" `Quick test_journal_basics;
        Alcotest.test_case "budgeted eviction" `Quick test_journal_eviction;
        Alcotest.test_case "li: retained host memory ceiling" `Quick
          test_journal_memory_li;
      ] );
    ( "replay.determinism",
      [
        Alcotest.test_case "matrix300: every window, +/- watch" `Slow
          test_determinism_matrix300;
        Alcotest.test_case "li: every window, +/- watch" `Slow
          test_determinism_li;
        Alcotest.test_case "guard fires on divergence" `Quick
          test_guard_fires_on_divergence;
        Alcotest.test_case "guard fires on registers and output" `Quick
          test_guard_fires_on_registers_and_output;
      ] );
    ( "replay.queries",
      [
        Alcotest.test_case "matrix300 c vs full trace" `Quick
          test_last_write_matrix300;
        Alcotest.test_case "li mark_count vs full trace" `Quick
          test_last_write_li;
        Alcotest.test_case "answers survive eviction" `Quick
          test_queries_survive_eviction;
        Alcotest.test_case "matrix300 every global, O_symbol" `Quick
          (every_global ~opt:Instrument.O_symbol "030.matrix300");
        Alcotest.test_case "li every global, O_symbol" `Quick
          (every_global ~opt:Instrument.O_symbol "022.li");
        Alcotest.test_case "tomcatv every global, O_symbol" `Quick
          (every_global ~opt:Instrument.O_symbol "047.tomcatv");
        Alcotest.test_case "nasker every global, O_symbol" `Quick
          (every_global ~opt:Instrument.O_symbol "020.nasker");
        Alcotest.test_case "matrix300 every global, O_full" `Quick
          (every_global ~opt:Instrument.O_full "030.matrix300");
        Alcotest.test_case "li every global, O_full" `Quick
          (every_global ~opt:Instrument.O_full "022.li");
        Alcotest.test_case "tomcatv every global, O_full" `Quick
          (every_global ~opt:Instrument.O_full "047.tomcatv");
        Alcotest.test_case "nasker every global, O_full" `Quick
          (every_global ~opt:Instrument.O_full "020.nasker");
        Alcotest.test_case "matrix300 every global, O_full, alias-checked" `Quick
          (every_global ~check_aliases:true ~opt:Instrument.O_full "030.matrix300");
        Alcotest.test_case "li every global, O_full, alias-checked" `Quick
          (every_global ~check_aliases:true ~opt:Instrument.O_full "022.li");
        Alcotest.test_case "matrix300 every global, O_full, thinned" `Quick
          (every_global ~interval:5_000 ~checkpoint_budget:200_000
             ~sub_word:true ~opt:Instrument.O_full "030.matrix300");
      ] );
    ( "replay.skip",
      [
        Alcotest.test_case "host-side write window is skipped" `Quick
          test_host_write_skipped;
        Alcotest.test_case "ranges straddling a block or a page" `Quick
          test_straddling_ranges;
        Alcotest.test_case "sliced recording: same journal and answers" `Quick
          test_slicing_invariance;
        Alcotest.test_case "eviction merges summaries" `Quick
          test_eviction_merges_summaries;
      ] );
    ( "replay.session",
      [
        Alcotest.test_case "refuses without a journal" `Quick
          test_session_without_journal;
        Alcotest.test_case "resolve_addr forms" `Quick test_resolve_addr_forms;
        Alcotest.test_case "telemetry + audit plumbing" `Quick
          test_replay_observability;
      ] );
  ]
