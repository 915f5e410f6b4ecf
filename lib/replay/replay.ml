open Sparc
open Machine

(* Time-travel engine: record a run while checkpointing it at an
   instruction-count interval, then answer retroactive queries by
   restoring the nearest checkpoint and re-executing.

   The watchpoint used during re-execution is *host-side*: a store
   hook that observes effective addresses after each store, exactly
   like the hardware-watchpoint strategy's oracle.  Nothing is written
   into simulated memory and no trap instruction runs, so the replayed
   program's architectural outcome is byte-identical whether or not a
   watch is armed (Price's virtual-breakpoint invisibility property) —
   which is precisely what lets the determinism guard hold during
   queries.

   While the run is recorded, the same hook marks the words every store
   writes ({!Written}); each checkpoint keeps the marks of the window
   it closes, and a query replays only the windows whose marks overlap
   the watched range. *)

type hit = {
  h_insn : int;  (* instruction count including the store *)
  h_pc : int;  (* pc of the store instruction *)
  h_addr : int;  (* word-aligned address written *)
  h_old : int;
  h_new : int;
  h_width : Insn.width;
}

exception Determinism_violation of {
  insn : int;
  expected : string;
  actual : string;
}

type t = {
  cpu : Cpu.t;
  journal : Journal.t;
  telemetry : Telemetry.t;
  audit : Audit.t;
  mutable seq : int;
  mutable end_insn : int;
  mutable exit_code : int option;
  mutable recorded : bool;
  (* Incremental-recording frontier ({!record_slice}): whether the
     initial checkpoint was taken, and the instruction count at which
     the next interval checkpoint is due. *)
  mutable started : bool;
  mutable next_boundary : int;
  pending : Written.builder;  (* stores since the last checkpoint *)
  (* Watch state shared with the store hook installed at [create]
     (hooks are append-only, so one hook with an [armed] flag). *)
  mutable armed : bool;
  mutable watch_lo : int;
  mutable watch_hi : int;  (* exclusive *)
  shadow : (int, int) Hashtbl.t;  (* watched word -> current value *)
  mutable hits : hit list;  (* newest first; reset on arm *)
  mutable replayed : int;
}

let off_telemetry () = Telemetry.create ~enabled:false ()
let off_audit () = Audit.create ~enabled:(fun () -> false) ()

let create ?telemetry ?audit ?budget_bytes ?(checkpoint_every = 10_000) cpu =
  let telemetry =
    match telemetry with Some t -> t | None -> off_telemetry ()
  in
  let audit = match audit with Some a -> a | None -> off_audit () in
  let on_evict snap =
    Telemetry.incr telemetry Telemetry.Checkpoint_evictions;
    if Audit.enabled audit then
      Audit.replay audit ~kind:Audit.Checkpoint_evicted
        ~insn:(Snapshot.insn snap)
        ~detail:(Printf.sprintf "seq=%d" (Snapshot.seq snap))
  in
  let journal =
    Journal.create ~on_evict ?budget_bytes ~interval:checkpoint_every ()
  in
  let t =
    {
      cpu;
      journal;
      telemetry;
      audit;
      seq = 0;
      end_insn = 0;
      exit_code = None;
      recorded = false;
      started = false;
      next_boundary = 0;
      pending = Written.builder ();
      armed = false;
      watch_lo = 0;
      watch_hi = 0;
      shadow = Hashtbl.create 64;
      hits = [];
      replayed = 0;
    }
  in
  Cpu.set_store_hook cpu (fun cpu ~addr ~width ->
      if t.armed then begin
        let last = addr + Insn.width_bytes width in
        let w = ref (addr land lnot 3) in
        while !w < last do
          (* Word [w] overlaps the watched byte range [lo, hi)? *)
          if !w + 4 > t.watch_lo && !w < t.watch_hi then begin
            let nv = Memory.read_word (Cpu.mem cpu) !w in
            let ov =
              match Hashtbl.find_opt t.shadow !w with Some v -> v | None -> 0
            in
            t.hits <-
              {
                h_insn = Cpu.instr_count cpu;
                h_pc = Cpu.pc cpu;
                h_addr = !w;
                h_old = ov;
                h_new = nv;
                h_width = width;
              }
              :: t.hits;
            Hashtbl.replace t.shadow !w nv
          end;
          w := !w + 4
        done
      end
      else if not t.recorded then Written.add t.pending ~addr ~width);
  t

let cpu t = t.cpu
let journal t = t.journal
let end_insn t = t.end_insn
let exit_code t = t.exit_code
let recorded t = t.recorded
let replayed_insns t = t.replayed
let interval t = Journal.interval t.journal

(* --- recording -------------------------------------------------------- *)

let take_checkpoint t =
  let snap =
    Snapshot.capture ~seq:t.seq ~written:(Written.take t.pending) t.cpu
  in
  t.seq <- t.seq + 1;
  let d0 = Journal.captured_delta_pages t.journal in
  let s0 = Journal.captured_shared_pages t.journal in
  let b0 = Journal.captured_bytes t.journal in
  Journal.record t.journal snap;
  Telemetry.incr t.telemetry Telemetry.Checkpoints_taken;
  Telemetry.add t.telemetry Telemetry.Checkpoint_pages_copied
    (Journal.captured_delta_pages t.journal - d0);
  Telemetry.add t.telemetry Telemetry.Checkpoint_pages_shared
    (Journal.captured_shared_pages t.journal - s0);
  Telemetry.add t.telemetry Telemetry.Checkpoint_bytes
    (Journal.captured_bytes t.journal - b0);
  if Audit.enabled t.audit then
    Audit.replay t.audit ~kind:Audit.Checkpoint_taken ~insn:(Snapshot.insn snap)
      ~detail:
        (Printf.sprintf "pages=%d shared=%d bytes=%d"
           (Journal.captured_delta_pages t.journal - d0)
           (Journal.captured_shared_pages t.journal - s0)
           (Journal.captured_bytes t.journal - b0))

(* Incremental recording: each slice advances the machine by at most
   [fuel] instructions, checkpointing at exactly the same places a
   one-shot {!record} would — interval boundaries and the halt — so a
   run recorded in N slices produces the same journal (and the same
   checkpoint telemetry) as a run recorded in one.  A slice that
   exhausts its fuel mid-interval takes no checkpoint; the next slice
   resumes toward the same boundary.  That is what makes the daemon's
   round-robin fairness slicing invisible to every retroactive query
   and to the cross-shard telemetry diffs. *)
let record_slice ?(fuel = 200_000_000) t =
  if t.recorded then `Exited (Option.get t.exit_code)
  else begin
    if not t.started then begin
      t.started <- true;
      take_checkpoint t;
      t.next_boundary <- Cpu.instr_count t.cpu + Journal.interval t.journal
    end;
    let start = Cpu.instr_count t.cpu in
    let stop = if fuel > max_int - start then max_int else start + fuel in
    let running () = Option.is_none (Cpu.halted t.cpu) in
    while running () && Cpu.instr_count t.cpu < stop do
      Cpu.run_to t.cpu ~insn:(min t.next_boundary stop);
      if (not (running ())) || Cpu.instr_count t.cpu >= t.next_boundary then begin
        take_checkpoint t;
        t.next_boundary <- Cpu.instr_count t.cpu + Journal.interval t.journal
      end
    done;
    match Cpu.halted t.cpu with
    | None -> `Out_of_fuel (Cpu.instr_count t.cpu - start)
    | Some code ->
      t.end_insn <- Cpu.instr_count t.cpu;
      t.exit_code <- Some code;
      t.recorded <- true;
      `Exited code
  end

let record ?(fuel = 200_000_000) t =
  if t.recorded then invalid_arg "Replay.record: run already recorded";
  match record_slice ~fuel t with
  | `Exited code -> code
  | `Out_of_fuel executed ->
    (* Parity with the pre-slice behavior: the one-shot recorder always
       checkpointed the frontier before giving up (unless a boundary
       checkpoint already landed on this exact instruction). *)
    if Cpu.instr_count t.cpu + Journal.interval t.journal <> t.next_boundary
    then take_checkpoint t;
    raise (Cpu.Out_of_fuel { executed })

(* --- travel ----------------------------------------------------------- *)

let restore_to t snap ~target =
  Snapshot.restore t.cpu snap;
  Telemetry.incr t.telemetry Telemetry.Restores;
  if Audit.enabled t.audit then
    Audit.replay t.audit ~kind:Audit.State_restored ~insn:(Snapshot.insn snap)
      ~detail:(Printf.sprintf "target=%d" target)

(* Step to [insn]; if a retained checkpoint exists exactly there,
   compare the machine with it (the determinism guard). *)
let exec_to ?(guard = true) t ~insn =
  let start = Cpu.instr_count t.cpu in
  Cpu.run_to t.cpu ~insn;
  let replayed = Cpu.instr_count t.cpu - start in
  t.replayed <- t.replayed + replayed;
  Telemetry.add t.telemetry Telemetry.Replayed_instrs replayed;
  if Cpu.instr_count t.cpu <> insn then
    failwith
      (Printf.sprintf
         "Replay: re-execution diverged: halted at insn %d before target %d"
         (Cpu.instr_count t.cpu) insn);
  if guard then begin
    match Option.bind (Journal.find t.journal ~insn) (Snapshot.diverges t.cpu) with
    | Some (expected, actual) ->
      raise (Determinism_violation { insn; expected; actual })
    | None -> ()
  end;
  if Audit.enabled t.audit then
    Audit.replay t.audit ~kind:Audit.Replay_finished ~insn
      ~detail:(Printf.sprintf "replayed=%d" replayed);
  replayed

let replay_from ?guard t snap ~insn =
  if not t.recorded then invalid_arg "Replay.replay_from: record the run first";
  if insn < Snapshot.insn snap || insn > t.end_insn then
    invalid_arg "Replay.replay_from: target outside [snapshot, end]";
  restore_to t snap ~target:insn;
  exec_to ?guard t ~insn

let travel ?guard t ~insn =
  if not t.recorded then invalid_arg "Replay.travel: record the run first";
  if insn < 0 || insn > t.end_insn then
    invalid_arg "Replay.travel: target outside the recorded run";
  match Journal.nearest t.journal ~insn with
  | None -> invalid_arg "Replay.travel: no checkpoint at or before target"
  | Some snap ->
    restore_to t snap ~target:insn;
    exec_to ?guard t ~insn

(* --- retroactive queries ---------------------------------------------- *)

let arm t ~lo ~hi =
  if lo >= hi then invalid_arg "Replay.arm: empty range";
  Hashtbl.reset t.shadow;
  let w = ref (lo land lnot 3) in
  while !w < hi do
    Hashtbl.replace t.shadow !w (Memory.read_word (Cpu.mem t.cpu) !w);
    w := !w + 4
  done;
  t.watch_lo <- lo;
  t.watch_hi <- hi;
  t.hits <- [];
  t.armed <- true

let disarm t = t.armed <- false

let hits t = List.rev t.hits

(* Re-execute to [insn] under the armed watch; an exception disarms it.
   Hits accumulate in [t.hits]. *)
let replay_armed ?guard t ~insn =
  try ignore (exec_to ?guard t ~insn)
  with e ->
    disarm t;
    raise e

(* Whether the window closed by [stop] stored to [[lo, hi)].  The
   summary marks exactly the words the watch would report, so the
   queries below skip every other window without restoring anything. *)
let stored stop ~lo ~hi = Written.overlaps (Snapshot.written stop) ~lo ~hi

(* Scan checkpoint windows newest-first; the first window containing a
   hit holds the final write (Transition-Watchpoints search order).
   The machine is left at the recorded end state. *)
let last_write ?guard t ~lo ~hi =
  if not t.recorded then invalid_arg "Replay.last_write: record the run first";
  let snaps = Arr.of_list (Journal.snapshots t.journal) in
  let result = ref None in
  let i = ref (Array.length snaps - 1) in
  while Option.is_none !result && !i >= 1 do
    let start = snaps.(!i - 1) and stop = snaps.(!i) in
    if stored stop ~lo ~hi then begin
      let insn = Snapshot.insn stop in
      restore_to t start ~target:insn;
      arm t ~lo ~hi;
      replay_armed ?guard t ~insn;
      disarm t;
      match t.hits with [] -> () | newest :: _ -> result := Some newest
    end;
    decr i
  done;
  ignore (travel ?guard t ~insn:t.end_insn);
  !result

let last_write_word ?guard t ~addr =
  let lo = addr land lnot 3 in
  last_write ?guard t ~lo ~hi:(lo + 4)

(* Full history: replay, oldest first, only the windows that wrote the
   range, each from its own checkpoint.  Every window ends on a retained
   checkpoint, so the guard checks each of them; a skipped window left
   the range unchanged, so arming at a window's start seeds the same old
   values the recorded run had there. *)
let write_history ?guard t ~lo ~hi =
  if not t.recorded then
    invalid_arg "Replay.write_history: record the run first";
  let snaps = Arr.of_list (Journal.snapshots t.journal) in
  let history =
    List.concat_map
      (fun i ->
        let start = snaps.(i - 1) and stop = snaps.(i) in
        if not (stored stop ~lo ~hi) then []
        else begin
          let insn = Snapshot.insn stop in
          restore_to t start ~target:insn;
          arm t ~lo ~hi;
          replay_armed ?guard t ~insn;
          hits t
        end)
      (List.init (max 0 (Array.length snaps - 1)) succ)
  in
  disarm t;
  t.hits <- [];
  ignore (travel ?guard t ~insn:t.end_insn);
  history
