(* dbreakd's engine: many independent debug sessions multiplexed over
   the dbp-wire/1 protocol, sharded across domains by {!Sched}.

   Division of labor:

   - The *main thread* (whoever created the engine and calls {!submit}
     / {!server_poll}) parses frames, routes them, owns the session
     table and the daemon registry ([commands_served]), and answers
     client-level frames ([hello], unknown-session errors) under the
     reserved sid ["-"].  It is also shard 0's domain: each
     {!server_poll} runs at most one shard-0 job between its socket
     passes, and {!drain} runs the rest.

   - A session's *shard domain* executes its commands in arrival
     order: opening (compile → instrument → load), arming, running with
     async hit streaming, retroactive queries and travel, closing.
     Every verb that executes instructions is cut into fuel slices.
     Every session-level reply is emitted there, which is what makes
     per-session sequence numbers and transcripts deterministic — the
     shard count only changes which sessions run concurrently, never
     the order of any one session's replies.

   - Telemetry follows the bench pool's commutative-sink discipline: a
     closed session's report is absorbed into its shard's sink, hits
     are counted into the shard sink as they stream, and
     {!merged_report} folds daemon registry + shard sinks + live
     sessions with {!Telemetry.merge} — so [GET /metrics] aggregates
     all live sessions and the merged report is byte-identical across
     shard counts once quiescent. *)

open Dbp

type client = {
  out_mu : Mutex.t;
  outbox : string Queue.t;
  mutable queued : int;  (* bytes in [outbox]; guarded by [out_mu] *)
  mutable cseq : int;  (* sid "-" counter; main thread only *)
  gone : bool Atomic.t;
      (* disconnected or over its backlog cap: its lines are dropped and
         its sessions close at their next step, on whichever shard *)
}

type sess = {
  sid : string;
  shard : int;
  owner : client;  (* commands from other clients are refused *)
  cmd_mu : Mutex.t;  (* guards [cmdq]: main thread pushes, shard pops *)
  cmdq : Proto.command Queue.t;  (* commands awaiting execution *)
  mutable cont : (unit -> unit) option;
      (* pending continuation of a sliced verb.  Checked before
         [cmdq], so slicing yields to other sessions on the shard but
         never reorders this session's own command stream.  Shard-only
         state. *)
  mutable seq : int;  (* bumped only on the owning shard *)
  mutable session : (Session.t * Debugger.t) option;  (* None until [open] *)
  mutable watches : (string * Debugger.watchpoint) list;
  mutable exited : int option;
  mutable closed : bool;
  mutable in_query : bool;  (* suppress hit streaming during replay *)
}

type t = {
  sched : Sched.t;
  slice : int;  (* fairness quantum: instructions per run slice *)
  reg : Telemetry.t;  (* daemon registry; main thread only *)
  mu : Mutex.t;  (* guards [sessions] *)
  sessions : (string, sess) Hashtbl.t;
  wake_r : Unix.file_descr;  (* readable once a shard has pushed replies *)
  wake_w : Unix.file_descr;
  wake_pending : bool Atomic.t;  (* a wake byte is in flight *)
  mutable down : bool;  (* shut down: the wake pipe is closed *)
}

let default_slice = 50_000

let create ?(shards = 1) ?(slice = default_slice) () =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  {
    sched = Sched.create ~shards ();
    slice = max 1 slice;
    reg = Telemetry.create ();
    mu = Mutex.create ();
    sessions = Hashtbl.create 64;
    wake_r;
    wake_w;
    wake_pending = Atomic.make false;
    down = false;
  }

(* Shard side: tell the main loop that an outbox has lines to flush.
   Only the caller that raises the flag writes, so jobs finishing
   between two main-loop passes write one byte between them; a full
   pipe already holds a wake. *)
let wake t =
  if Atomic.compare_and_set t.wake_pending false true then
    try ignore (Unix.single_write_substring t.wake_w "!" 0 1)
    with Unix.Unix_error _ -> ()

(* Main side, before flushing: empty the pipe, then lower the flag.  A
   wake raised after the lowering writes a byte the next [select]
   sees; lowering first would let a byte written mid-drain vanish while
   the flag stays up, stranding every later reply. *)
let clear_wake t =
  if not t.down then begin
    ignore (Edge_io.read t.wake_r (Bytes.create 64) (fun _ -> true));
    Atomic.set t.wake_pending false
  end

let shards t = Sched.shards t.sched

let client _ =
  { out_mu = Mutex.create (); outbox = Queue.create (); queued = 0; cseq = 0; gone = Atomic.make false }

(* Most reply bytes a client may leave unsent, in its outbox and again
   in its connection's write buffer: a client that stops reading is
   reaped like a peer reset instead of growing the daemon. *)
let max_unsent = 32 lsl 20

(* A line pushed past the cap is dropped and marks the client gone, so
   the job that crossed it is the last one that adds to the outbox. *)
let push c line =
  if not (Atomic.get c.gone) then begin
    Mutex.lock c.out_mu;
    Queue.push line c.outbox;
    c.queued <- c.queued + String.length line + 1;
    let over = c.queued > max_unsent in
    if over then begin
      Queue.clear c.outbox;
      c.queued <- 0
    end;
    Mutex.unlock c.out_mu;
    if over then Atomic.set c.gone true
  end

let output c =
  Mutex.lock c.out_mu;
  let lines = List.of_seq (Queue.to_seq c.outbox) in
  Queue.clear c.outbox;
  c.queued <- 0;
  Mutex.unlock c.out_mu;
  lines

(* Client-level reply (the [hello] greeting, errors about frames that
   never reached a session): reserved sid "-", client's own counter. *)
let client_reply c body =
  c.cseq <- c.cseq + 1;
  push c (Proto.encode_reply { Proto.r_sid = "-"; r_seq = c.cseq; r_body = body })

(* Session-level reply: called on the owning shard only. *)
let emit sess body =
  sess.seq <- sess.seq + 1;
  push sess.owner
    (Proto.encode_reply { Proto.r_sid = sess.sid; r_seq = sess.seq; r_body = body })

(* --- command execution (shard side) ----------------------------------- *)

let hit_sink t sess = Sched.sink t.sched ~shard:sess.shard

let do_open t sess source strategy_s opt_s =
  let ( let* ) = Result.bind in
  let parsed =
    let* () =
      if Option.is_some sess.session then Error "session already open" else Ok ()
    in
    let* strategy =
      try Ok (Strategy.of_string strategy_s) with Invalid_argument m -> Error m
    in
    let* opt = Frontend.parse_opt opt_s in
    match source with
    | Proto.Program src -> Ok (strategy, opt, "program", src)
    | Proto.Workload w -> (
      match Workloads.Spec.find w with
      | Some spec -> Ok (strategy, opt, w, spec.Workloads.Workload.source)
      | None -> Error (Printf.sprintf "unknown workload %S" w))
  in
  match parsed with
  | Error m -> emit sess (Proto.Error m)
  | Ok (strategy, opt, name, src) ->
    let options = { Instrument.default_options with strategy; opt } in
    let telemetry = Telemetry.create () in
    Telemetry.set_tag telemetry "source" name;
    (* Retroactive queries are first-class verbs, so every daemon
       session records through a checkpoint journal. *)
    let session = Session.create ~options ~telemetry ~checkpoint_every:10_000 src in
    let dbg = Debugger.create session in
    Debugger.set_on_event dbg (fun e ->
        if not sess.in_query then begin
          Telemetry.incr (hit_sink t sess) Telemetry.Hits_streamed;
          emit sess
            (Proto.Hit
               {
                 name = e.Debugger.watch.Debugger.wname;
                 insn = Machine.Cpu.instr_count session.Session.cpu;
                 pc = e.Debugger.pc;
                 addr = e.Debugger.addr;
                 value = e.Debugger.value;
                 func = Option.value ~default:"?" e.Debugger.in_function;
               })
        end);
    sess.session <- Some (session, dbg);
    emit sess
      (Proto.Opened
         { name; strategy = Strategy.to_string strategy; opt = Frontend.opt_name opt })

let with_session sess f =
  match sess.session with
  | None -> emit sess (Proto.Error "session not open")
  | Some (s, dbg) -> f s dbg

let armed_reply sess name (wp : Debugger.watchpoint) =
  sess.watches <- (name, wp) :: sess.watches;
  let r = wp.Debugger.region in
  emit sess
    (Proto.Armed { name; lo = r.Region.lo; len = Region.size_bytes r })

let do_arm sess target =
  with_session sess (fun _ dbg ->
      match target with
      | Proto.Var v -> armed_reply sess v (Debugger.watch dbg v)
      | Proto.Region { lo; len } ->
        let name = Printf.sprintf "region:0x%x+%d" lo len in
        armed_reply sess name
          (Debugger.watch_addr dbg ~name ~addr:lo ~size_bytes:len ()))

let do_disarm sess name =
  with_session sess (fun _ dbg ->
      match List.assoc_opt name sess.watches with
      | None -> emit sess (Proto.Error (Printf.sprintf "no watch named %S" name))
      | Some wp ->
        Debugger.disarm dbg wp;
        sess.watches <- List.remove_assoc name sess.watches;
        emit sess (Proto.Disarmed { name }))

(* A reply line costs the fuel of this many instructions: a slice's
   worth of [Write] lines takes about as long to encode as a slice. *)
let line_fuel = 50

(* Every verb that executes instructions runs through [drive]:
   [advance ~fuel] runs at most [t.slice] of them and answers [More], or
   [Done a], whose [reply a] lines are then emitted [t.slice / line_fuel]
   per job.  Between jobs the continuation is parked in [sess.cont],
   and [step] posts a fresh job for it, landing behind other sessions'
   queued work on the shard — round-robin, one session cannot starve the
   loop.  [step] checks [cont] before the command queue, so the
   session's own later commands never overtake the verb.  Slicing is
   invisible on the wire: hits stream as they fire and the same reply
   lines close the command, whatever the quantum. *)
let drive t sess advance reply =
  let per_job = max 1 (t.slice / line_fuel) in
  let rec lines n = function
    | [] -> ()
    | rest when n = 0 -> sess.cont <- Some (fun () -> lines per_job rest)
    | body :: rest ->
      emit sess body;
      lines (n - 1) rest
  in
  let rec slice () =
    match advance ~fuel:t.slice with
    | Replay.Done a ->
      sess.in_query <- false;
      lines per_job (reply a)
    | Replay.More -> sess.cont <- Some slice
  in
  slice ()

let do_run t sess fuel =
  with_session sess (fun s _ ->
      let start_insn = Machine.Cpu.instr_count s.Session.cpu in
      let executed () = Machine.Cpu.instr_count s.Session.cpu - start_insn in
      let remaining = ref (max 0 fuel) in
      drive t sess
        (fun ~fuel ->
          match Session.run_slice ~fuel:(min fuel !remaining) s with
          | `Exited (code, output) ->
            sess.exited <- Some code;
            Replay.Done (Proto.Exited { code; executed = executed (); output })
          | `Running n ->
            remaining := !remaining - n;
            if !remaining > 0 then Replay.More
            else Replay.Done (Proto.Running { executed = executed () }))
        (fun body -> [ body ]))

(* Every shard-side command runs under this: anything the session
   machinery raises becomes a deterministic error reply, in dbreak's
   words, instead of killing the shard.  The failed command's
   continuation is already dropped, and its hit suppression ends. *)
let guarded sess f =
  try f ()
  with e -> (
    sess.in_query <- false;
    match Frontend.error_message e with
    | Some m -> emit sess (Proto.Error m)
    | None -> raise e)

let with_target sess target k =
  with_session sess (fun s _ ->
      match Session.resolve_addr s target with
      | Some addr -> k s addr
      | None -> emit sess (Proto.Error (Frontend.unresolved_target target)))

(* A retroactive verb: a replay cursor driven to its answer, with hit
   streaming suppressed from its first slice to its last. *)
let query t sess s goal reply =
  match sess.exited with
  | None -> emit sess (Proto.Error "program still running: run it to completion first")
  | Some _ ->
    let c = Session.cursor s goal in
    sess.in_query <- true;
    drive t sess (Session.advance s c) reply

let wtype s (h : Replay.hit) =
  Option.fold ~none:"untyped" ~some:Write_type.to_string
    (Instrument.store_type s.Session.sites h.h_pc)

let do_last_write t sess target =
  with_target sess target (fun s addr ->
      let lo = addr land lnot 3 in
      query t sess s (Replay.Last_write { lo; hi = lo + 4 }) (function
        | None -> [ Proto.Never_written { target; addr } ]
        | Some (h : Replay.hit) ->
          [
            Proto.Last_write
              {
                target;
                addr;
                insn = h.h_insn;
                pc = h.h_pc;
                old_v = h.h_old;
                new_v = h.h_new;
                wtype = wtype s h;
                func = Option.value ~default:"?" (Debugger.function_of_pc s h.h_pc);
              };
          ]))

let do_history t sess target len =
  with_target sess target (fun s lo ->
      query t sess s (Replay.History { lo; hi = lo + max 0 len }) (fun writes ->
          Proto.History { count = List.length writes }
          :: List.map
               (fun (h : Replay.hit) ->
                 Proto.Write
                   {
                     insn = h.h_insn;
                     pc = h.h_pc;
                     addr = h.h_addr;
                     old_v = h.h_old;
                     new_v = h.h_new;
                     wtype = wtype s h;
                   })
               writes))

let do_travel t sess insn =
  with_session sess (fun s _ ->
      query t sess s (Replay.Travel insn) (fun reexecuted ->
          [ Proto.Traveled { insn; reexecuted; pc = Machine.Cpu.pc s.Session.cpu } ]))

let do_report sess =
  with_session sess (fun s _ ->
      emit sess (Proto.Report_json (Export.to_json_string (Session.report s))))

let do_verify sess =
  with_session sess (fun s _ ->
      let rep =
        Verify.run
          ~audit:(Audit.report s.Session.audit)
          s.Session.plan
      in
      emit sess
        (Proto.Verified
           {
             total = List.length rep.Verify.v_obligations;
             proved = rep.Verify.v_proved;
             refuted = rep.Verify.v_refuted;
             unknown = rep.Verify.v_unknown;
           }))

let do_close t sess =
  (match sess.session with
  | Some (s, _) -> Telemetry.absorb (hit_sink t sess) (Session.report s)
  | None -> ());
  sess.closed <- true;
  emit sess Proto.Closed;
  Mutex.lock t.mu;
  Hashtbl.remove t.sessions sess.sid;
  Mutex.unlock t.mu

let exec t sess cmd =
  match cmd with
  | Proto.Hello -> assert false (* answered client-side *)
  | Proto.Open { source; strategy; opt; _ } -> do_open t sess source strategy opt
  | Proto.Arm { target; _ } -> do_arm sess target
  | Proto.Disarm { name; _ } -> do_disarm sess name
  | Proto.Run { fuel; _ } -> do_run t sess fuel
  | Proto.Query_last_write { target; _ } -> do_last_write t sess target
  | Proto.Query_history { target; len; _ } -> do_history t sess target len
  | Proto.Travel { insn; _ } -> do_travel t sess insn
  | Proto.Report _ -> do_report sess
  | Proto.Verify _ -> do_verify sess
  | Proto.Close _ -> do_close t sess

(* One scheduler job = one step of one session: resume a parked
   continuation if there is one, otherwise execute the next queued
   command.  Every enqueue (submit or continuation park) posts exactly
   one step, so steps and work items balance; all session state except
   [cmdq] is touched only here, on the owning shard. *)
let rec step t sess =
  if Atomic.get sess.owner.gone && not sess.closed then do_close t sess;
  if sess.closed then begin
    sess.cont <- None;
    match take_cmd sess with
    | Some _ -> emit sess (Proto.Error "session closed")
    | None -> ()
  end
  else begin
    (match sess.cont with
    | Some k ->
      sess.cont <- None;
      guarded sess k
    | None -> (
      match take_cmd sess with
      | Some cmd -> guarded sess (fun () -> exec t sess cmd)
      | None -> ()));
    if Option.is_some sess.cont then repost t sess
  end

(* One wake per job, and only for a job that emitted: a step streaming
   hundreds of hits costs the main loop one pass, not one per line. *)
and repost t sess =
  Sched.post t.sched ~key:sess.sid (fun () ->
      let seq = sess.seq in
      Fun.protect
        ~finally:(fun () -> if sess.seq <> seq then wake t)
        (fun () -> step t sess))

and take_cmd sess =
  Mutex.lock sess.cmd_mu;
  let cmd = Queue.take_opt sess.cmdq in
  Mutex.unlock sess.cmd_mu;
  cmd

let enqueue t sess cmd =
  Mutex.lock sess.cmd_mu;
  Queue.push cmd sess.cmdq;
  Mutex.unlock sess.cmd_mu;
  repost t sess

(* --- routing (main-thread side) --------------------------------------- *)

let submit t c line =
  match Proto.decode_command line with
  | Error m -> client_reply c (Proto.Error m)
  | Ok cmd -> (
    Telemetry.incr t.reg Telemetry.Commands_served;
    match cmd with
    | Proto.Hello -> client_reply c Proto.Hello_ok
    | _ -> (
      let sid = Option.get (Proto.command_sid cmd) in
      let is_open = match cmd with Proto.Open _ -> true | _ -> false in
      Mutex.lock t.mu;
      let existing = Hashtbl.find_opt t.sessions sid in
      let route =
        match (existing, is_open) with
        | Some _, true ->
          Error (Printf.sprintf "session %S already exists" sid)
        | Some sess, false ->
          if sess.owner != c then
            Error (Printf.sprintf "session %S belongs to another client" sid)
          else Ok sess
        | None, true ->
          if sid = "-" || sid = "" then
            Error "session id must be a non-empty token other than \"-\""
          else begin
            let sess =
              {
                sid;
                shard = Sched.shard_of t.sched sid;
                owner = c;
                cmd_mu = Mutex.create ();
                cmdq = Queue.create ();
                cont = None;
                seq = 0;
                session = None;
                watches = [];
                exited = None;
                closed = false;
                in_query = false;
              }
            in
            Hashtbl.replace t.sessions sid sess;
            Ok sess
          end
        | None, false -> Error (Printf.sprintf "unknown session %S" sid)
      in
      Mutex.unlock t.mu;
      match route with
      | Error m -> client_reply c (Proto.Error m)
      | Ok sess -> enqueue t sess cmd))

(* Mark the client gone, and post one step to each session it owns:
   that step, or the one its parked continuation already has queued,
   closes the session instead of running its work. *)
let close_client t c =
  Atomic.set c.gone true;
  Mutex.lock t.mu;
  let owned =
    Hashtbl.fold (fun _ sess acc -> if sess.owner == c then sess :: acc else acc) t.sessions []
  in
  Mutex.unlock t.mu;
  List.iter (repost t) owned

let drain t = Sched.drain t.sched

let sessions_open t =
  Mutex.lock t.mu;
  let n = Hashtbl.length t.sessions in
  Mutex.unlock t.mu;
  n

(* Aggregate view: daemon registry + shard sinks (closed sessions) +
   every live session's report.  Reading a live session's registry
   while its shard is mid-slice is a monitoring read (plain int
   loads); quiescent reads (after {!drain}) are exact and
   shard-count-independent. *)
let merged_report t =
  Telemetry.set t.reg Telemetry.Sessions_open (sessions_open t);
  Mutex.lock t.mu;
  let live =
    Hashtbl.fold
      (fun _ sess acc ->
        match sess.session with
        | Some (s, _) when not sess.closed -> Session.report s :: acc
        | _ -> acc)
      t.sessions []
  in
  Mutex.unlock t.mu;
  Telemetry.merge
    (Telemetry.report t.reg :: Sched.merged_report t.sched :: live)

(* Escaped job exceptions are a daemon-process fact, not session
   telemetry: the family is appended here, so [report] replies and
   bench output never carry it. *)
let metrics_body t =
  Export.to_prometheus (merged_report t)
  ^ Printf.sprintf
      "# HELP dbreakd_job_failures_total Shard jobs that escaped with an \
       exception.\n\
       # TYPE dbreakd_job_failures_total counter\n\
       dbreakd_job_failures_total %d\n"
      (Sched.failures t.sched)

let sched t = t.sched

let shutdown t =
  Sched.shutdown t.sched;
  if not t.down then begin
    t.down <- true;
    (try Unix.close t.wake_r with _ -> ());
    try Unix.close t.wake_w with _ -> ()
  end

(* --- wire listener ----------------------------------------------------- *)

(* Connections are long-lived: each feeds complete frames to {!submit}
   as bytes arrive and flushes its client's outbox through its {!Edge}.
   A connection past EOF stays only to send what it still owes. *)

type conn = { fd : Unix.file_descr; cl : client; edge : Edge.t; mutable eof : bool }

type server = {
  engine : t;
  lsock : Unix.file_descr;
  lport : int;
  mutable conns : conn list;
  mutable sclosed : bool;
  chunk : Bytes.t;  (* read and write staging, main thread only *)
}

let listen ?host t ~port () =
  let lsock, lport = Edge_io.listen ?host ~port () in
  { engine = t; lsock; lport; conns = []; sclosed = false; chunk = Bytes.create 65536 }

let server_port srv = srv.lport

(* Longest unterminated frame a connection may send.  Real frames are
   far smaller: the largest SPEC source is ~3 KB before escaping. *)
let max_line = 1 lsl 20

(* A frame past [max_line] gets one client-level error and ends the
   connection like EOF, so its sessions close once the error is
   flushed. *)
let read_conn srv conn =
  match
    Edge_io.read conn.fd srv.chunk (fun k ->
        Edge.feed conn.edge srv.chunk k (submit srv.engine conn.cl))
  with
  | `Open -> ()
  | `Eof -> conn.eof <- true
  | `Over ->
    client_reply conn.cl (Proto.Error (Printf.sprintf "frame longer than %d bytes" max_line));
    conn.eof <- true

(* A peer that reset, or a client past [max_unsent], loses its pending
   bytes; the reaping below closes its sessions. *)
let flush_conn srv conn =
  List.iter (Edge.add_line conn.edge) (output conn.cl);
  if
    not
      (Edge_io.flush conn.fd srv.chunk conn.edge
      && (not (Edge.over conn.edge))
      && not (Atomic.get conn.cl.gone))
  then begin
    Edge.drop conn.edge;
    conn.eof <- true
  end

(* At most one shard-0 job runs between the read and the flush, so
   socket I/O waits for at most one slice or one other verb.  While
   shard 0 still has queued work the pass leaves a wake in the pipe, so
   the next [select] on {!server_fds} returns at once. *)
let server_poll srv =
  if not srv.sclosed then begin
    let t = srv.engine in
    clear_wake t;
    List.iter
      (fun fd ->
        let edge = Edge.create Edge.Lines ~in_cap:max_line ~out_cap:max_unsent in
        srv.conns <- { fd; cl = client t; edge; eof = false } :: srv.conns)
      (Edge_io.accept srv.lsock);
    List.iter (fun conn -> if not conn.eof then read_conn srv conn) srv.conns;
    ignore (Sched.run_local t.sched);
    List.iter (flush_conn srv) srv.conns;
    let live, dead =
      List.partition (fun c -> (not c.eof) || Edge.pending c.edge > 0) srv.conns
    in
    srv.conns <- live;
    List.iter
      (fun conn ->
        close_client t conn.cl;
        Edge_io.close conn.fd)
      dead;
    if (not t.down) && Sched.local_pending t.sched then wake t
  end

(* EOF is always readable, so a connection past it waits for
   writability only. *)
let server_fds srv =
  (if srv.engine.down then [] else [ srv.engine.wake_r ])
  @ (srv.lsock :: List.filter_map (fun c -> if c.eof then None else Some c.fd) srv.conns)

let serve_for ?scrape srv ~seconds =
  Edge_io.serve ~seconds
    ~fds:(fun () ->
      let reads, writes, wake_at =
        match scrape with Some s -> Scrape.fds s | None -> ([], [], infinity)
      in
      ( reads @ server_fds srv,
        List.filter_map (fun c -> if Edge.pending c.edge > 0 then Some c.fd else None) srv.conns
        @ writes,
        wake_at ))
    ~poll:(fun () ->
      server_poll srv;
      Option.iter (fun s -> ignore (Scrape.poll s)) scrape;
      not srv.sclosed)

let server_close srv =
  if not srv.sclosed then begin
    server_poll srv;
    srv.sclosed <- true;
    List.iter
      (fun conn ->
        close_client srv.engine conn.cl;
        Edge_io.close conn.fd)
      srv.conns;
    srv.conns <- [];
    try Unix.close srv.lsock with _ -> ()
  end
