open Sparc
open Machine

(* Time-travel engine: record a run while checkpointing it at an
   instruction-count interval, then answer retroactive queries with one
   replay cursor that restores checkpoints and re-executes.  While
   recording, the machine's store bodies mark the words every store
   writes ({!Cpu.set_marks}); while a cursor's leg is armed, a store
   hook is the invisible host-side watch (see replay.mli). *)

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
  mutable armed : (Cpu.t -> addr:int -> width:Insn.width -> unit) option;
      (* the watch's store hook, registered while an armed leg replays *)
}

(* A cursor's watch on [[lo, hi)]: [shadow] maps each watched word to
   its current value. *)
and watch = {
  lo : int;
  hi : int;
  shadow : (int, int) Hashtbl.t;
  mutable hits : hit list;  (* newest first, across the cursor's legs *)
}

let create ?telemetry ?audit ?budget_bytes ?(checkpoint_every = 10_000) cpu =
  let telemetry =
    match telemetry with Some t -> t | None -> Telemetry.create ()
  in
  let audit =
    match audit with Some a -> a | None -> Audit.create ~enabled:(fun () -> false) ()
  in
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
      armed = None;
    }
  in
  Cpu.set_marks cpu (Some t.pending);
  t

(* The watch's store hook: every watched word a store wrote is a hit. *)
let watch_hook wt cpu ~addr ~width =
  let last = addr + Insn.width_bytes width in
  let w = ref (addr land lnot 3) in
  while !w < last do
    (* Word [w] overlaps the watched byte range [lo, hi)? *)
    if !w + 4 > wt.lo && !w < wt.hi then begin
      let nv = Memory.read_word (Cpu.mem cpu) !w in
      let ov = Option.value ~default:0 (Hashtbl.find_opt wt.shadow !w) in
      wt.hits <-
        {
          h_insn = Cpu.instr_count cpu;
          h_pc = Cpu.pc cpu;
          h_addr = !w;
          h_old = ov;
          h_new = nv;
          h_width = width;
        }
        :: wt.hits;
      Hashtbl.replace wt.shadow !w nv
    end;
    w := !w + 4
  done

let disarm t =
  Option.iter (Cpu.remove_store_hook t.cpu) t.armed;
  t.armed <- None

let arm t hook =
  disarm t;
  Cpu.set_store_hook t.cpu hook;
  t.armed <- Some hook

let journal t = t.journal
let end_insn t = t.end_insn
let interval t = Journal.interval t.journal

(* --- recording -------------------------------------------------------- *)

let take_checkpoint t =
  let snap =
    Snapshot.capture ~seq:t.seq ~written:(Written.take t.pending) t.cpu
  in
  t.seq <- t.seq + 1;
  let { Journal.delta_pages = pages; shared_pages = shared; bytes; _ } =
    Journal.record t.journal snap
  in
  Telemetry.incr t.telemetry Telemetry.Checkpoints_taken;
  Telemetry.add t.telemetry Telemetry.Checkpoint_pages_copied pages;
  Telemetry.add t.telemetry Telemetry.Checkpoint_pages_shared shared;
  Telemetry.add t.telemetry Telemetry.Checkpoint_bytes bytes;
  if Audit.enabled t.audit then
    Audit.replay t.audit ~kind:Audit.Checkpoint_taken ~insn:(Snapshot.insn snap)
      ~detail:(Printf.sprintf "pages=%d shared=%d bytes=%d" pages shared bytes)

(* Incremental recording: each slice advances the machine by at most
   [fuel] instructions, checkpointing at exactly the same places a
   one-shot recording would — interval boundaries and the halt — so a
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
      Cpu.set_marks t.cpu None;
      `Exited code
  end

(* --- the replay cursor --------------------------------------------------- *)

type _ goal =
  | Travel : int -> int goal
  | Last_write : { lo : int; hi : int } -> hit option goal
  | History : { lo : int; hi : int } -> hit list goal

type 'a progress = More | Done of 'a

(* Restore [from] and re-execute to [upto], under the watch if [armed]. *)
type leg = { from : Snapshot.t; upto : int; armed : bool }

type 'a cursor = {
  r : t;
  goal : 'a goal;
  guard : bool;
  watch : watch;
  hook : Cpu.t -> addr:int -> width:Insn.width -> unit;  (* [watch_hook watch] *)
  mutable legs : leg list;  (* the head is under way once [restored] *)
  mutable restored : bool;
  mutable replayed : int;
}

let make ?(guard = true) ?(lo = 0) ?(hi = 0) r goal legs =
  if not r.recorded then invalid_arg "Replay.cursor: record the run first";
  let watch = { lo; hi; shadow = Hashtbl.create 64; hits = [] } in
  { r; goal; guard; watch; hook = watch_hook watch; legs; restored = false; replayed = 0 }

(* A travel is one unarmed leg.  A query replays each window that stored
   to the range (the summary marks exactly the words the watch would
   report) from its own checkpoint, then travels back to the end:
   newest first for the last write (Transition-Watchpoints search
   order: the first window that hits holds it), oldest first for the
   history.  A skipped window left the range unchanged, so arming at a
   window's start seeds the old values the recorded run had there. *)
let cursor (type a) ?guard t (goal : a goal) : a cursor =
  let travel insn =
    if insn < 0 || insn > t.end_insn then
      invalid_arg "Replay.travel: target outside the recorded run";
    (* The first checkpoint, at insn 0, is never evicted. *)
    { from = Option.get (Journal.nearest t.journal ~insn); upto = insn; armed = false }
  in
  let query ~lo ~hi order =
    let rec windows acc = function
      | from :: (stop :: _ as rest) ->
        windows
          (if Written.overlaps (Snapshot.written stop) ~lo ~hi then
             { from; upto = Snapshot.insn stop; armed = true } :: acc
           else acc)
          rest
      | _ -> acc
    in
    let newest_first = windows [] (Journal.snapshots t.journal) in
    make ?guard t goal ~lo ~hi (order newest_first @ [ travel t.end_insn ])
  in
  match goal with
  | Travel insn -> make ?guard t goal [ travel insn ]
  | Last_write { lo; hi } -> query ~lo ~hi Fun.id
  | History { lo; hi } -> query ~lo ~hi List.rev

let start_leg c leg =
  let t = c.r in
  Snapshot.restore t.cpu leg.from;
  Telemetry.incr t.telemetry Telemetry.Restores;
  if Audit.enabled t.audit then
    Audit.replay t.audit ~kind:Audit.State_restored ~insn:(Snapshot.insn leg.from)
      ~detail:(Printf.sprintf "target=%d" leg.upto);
  if leg.armed then begin
    let wt = c.watch in
    Hashtbl.reset wt.shadow;
    let w = ref (wt.lo land lnot 3) in
    while !w < wt.hi do
      Hashtbl.replace wt.shadow !w (Memory.read_word (Cpu.mem t.cpu) !w);
      w := !w + 4
    done;
    arm t c.hook
  end;
  c.restored <- true

(* A leg ends on its target: disarm, apply the determinism guard if a
   retained checkpoint is there, and once a last-write leg has hit,
   drop the windows left to search. *)
let finish_leg (type a) (c : a cursor) leg =
  let t = c.r in
  disarm t;
  c.restored <- false;
  (match c.goal with
  | Last_write _ when c.watch.hits <> [] ->
    c.legs <- List.filter (fun l -> not l.armed) c.legs
  | _ -> ());
  if c.guard then
    Option.iter
      (fun (expected, actual) ->
        raise (Determinism_violation { insn = leg.upto; expected; actual }))
      (Option.bind (Journal.find t.journal ~insn:leg.upto) (Snapshot.diverges t.cpu));
  if Audit.enabled t.audit then
    Audit.replay t.audit ~kind:Audit.Replay_finished ~insn:leg.upto
      ~detail:(Printf.sprintf "replayed=%d" (leg.upto - Snapshot.insn leg.from))

let answer (type a) (c : a cursor) : a =
  match c.goal with
  | Travel _ -> c.replayed
  | Last_write _ -> List.nth_opt c.watch.hits 0
  | History _ -> List.rev c.watch.hits

(* The one replay loop: restore each leg's checkpoint and re-execute
   toward its target until [fuel] instructions have run, inside the
   bracket that makes replay count nothing (see replay.mli).  An
   exception disarms the watch. *)
let advance c ~fuel =
  let t = c.r in
  let rec go fuel =
    match c.legs with
    | [] -> Done (answer c)
    | _ when fuel <= 0 -> More
    | leg :: rest ->
      if not c.restored then start_leg c leg;
      let start = Cpu.instr_count t.cpu in
      Cpu.without_observers t.cpu (fun () ->
          Telemetry.replaying t.telemetry (fun () ->
              Cpu.run_to t.cpu ~insn:(start + min fuel (leg.upto - start))));
      let ran = Cpu.instr_count t.cpu - start in
      c.replayed <- c.replayed + ran;
      Telemetry.add t.telemetry Telemetry.Replayed_instrs ran;
      if Cpu.instr_count t.cpu = leg.upto then begin
        c.legs <- rest;
        finish_leg c leg;
        go (fuel - ran)
      end
      else if Option.is_some (Cpu.halted t.cpu) then
        failwith
          (Printf.sprintf
             "Replay: re-execution diverged: halted at insn %d before target %d"
             (Cpu.instr_count t.cpu) leg.upto)
      else More
  in
  try go fuel
  with e ->
    disarm t;
    raise e

let rec to_end c = match advance c ~fuel:max_int with Done a -> a | More -> to_end c

let query ?guard t goal = to_end (cursor ?guard t goal)

let replay_from ?guard t from ~insn =
  if insn < Snapshot.insn from || insn > t.end_insn then
    invalid_arg "Replay.replay_from: target outside [snapshot, end]";
  to_end (make ?guard t (Travel insn) [ { from; upto = insn; armed = false } ])
