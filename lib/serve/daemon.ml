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

type sess = {
  sid : string;
  shard : int;
  owner : int;  (* owning client id; commands from others are refused *)
  emit_line : string -> unit;  (* append to the owner's outbox *)
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

type client = {
  cid : int;
  out_mu : Mutex.t;
  outbox : string Queue.t;
  mutable cseq : int;  (* sid "-" counter; main thread only *)
  mutable disconnected : bool;
}

type t = {
  sched : Sched.t;
  slice : int;  (* fairness quantum: instructions per run slice *)
  reg : Telemetry.t;  (* daemon registry; main thread only *)
  mu : Mutex.t;  (* guards [sessions] *)
  sessions : (string, sess) Hashtbl.t;
  mutable next_cid : int;
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
    next_cid = 0;
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
    let buf = Bytes.create 64 in
    let rec drain () =
      match Unix.read t.wake_r buf 0 (Bytes.length buf) with
      | 0 -> ()
      | _ -> drain ()
      | exception Unix.Unix_error _ -> ()
    in
    drain ();
    Atomic.set t.wake_pending false
  end

let shards t = Sched.shards t.sched

let client t =
  let c =
    {
      cid = t.next_cid;
      out_mu = Mutex.create ();
      outbox = Queue.create ();
      cseq = 0;
      disconnected = false;
    }
  in
  t.next_cid <- t.next_cid + 1;
  c

let push c line =
  Mutex.lock c.out_mu;
  Queue.push line c.outbox;
  Mutex.unlock c.out_mu

let output c =
  Mutex.lock c.out_mu;
  let lines = List.of_seq (Queue.to_seq c.outbox) in
  Queue.clear c.outbox;
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
  sess.emit_line
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
          if sess.owner <> c.cid then
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
                owner = c.cid;
                emit_line = push c;
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

(* Close every session a disconnecting client still owns (absorbing
   their telemetry); its outbox is simply never flushed again. *)
let close_client t c =
  if not c.disconnected then begin
    c.disconnected <- true;
    Mutex.lock t.mu;
    let owned =
      Hashtbl.fold
        (fun _ sess acc -> if sess.owner = c.cid then sess :: acc else acc)
        t.sessions []
    in
    Mutex.unlock t.mu;
    (* Through the command queue, so an in-flight sliced run finishes
       (and its telemetry is complete) before the close absorbs it. *)
    List.iter (fun sess -> enqueue t sess (Proto.Close { sid = sess.sid })) owned
  end

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

(* Same nonblocking-accept discipline as {!Scrape}, but connections are
   long-lived: each one feeds complete frames to {!submit} as bytes
   arrive, and flushes its client's outbox with nonblocking writes.
   Unsent bytes wait in [wbuf] from offset [woff] until the socket
   drains ({!serve_for} selects for writability while any are
   pending). *)

type conn = {
  fd : Unix.file_descr;
  cl : client;
  rbuf : Buffer.t;  (* the unterminated tail of the input *)
  wbuf : Buffer.t;  (* reply bytes accepted for write *)
  mutable woff : int;  (* [wbuf]'s prefix already sent *)
  mutable eof : bool;
}

type server = {
  engine : t;
  lsock : Unix.file_descr;
  lport : int;
  mutable conns : conn list;
  mutable sclosed : bool;
  chunk : Bytes.t;  (* read and write staging, main thread only *)
}

let listen ?(host = Unix.inet_addr_loopback) t ~port () =
  (* A write to a peer that reset would otherwise kill the process
     before [flush_conn] sees EPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (host, port));
     Unix.listen sock 64;
     Unix.set_nonblock sock
   with e ->
     Unix.close sock;
     raise e);
  let lport =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  {
    engine = t;
    lsock = sock;
    lport;
    conns = [];
    sclosed = false;
    chunk = Bytes.create 65536;
  }

let server_port srv = srv.lport

let accept_pending srv =
  let rec go () =
    match Unix.accept srv.lsock with
    | fd, _ ->
      Unix.set_nonblock fd;
      (* [flush_conn] already writes a pass's replies at once; Nagle
         would hold a second write (the [exited] after a slice's hits,
         another session's replies) until the peer's delayed ACK. *)
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      srv.conns <-
        {
          fd;
          cl = client srv.engine;
          rbuf = Buffer.create 256;
          wbuf = Buffer.create 4096;
          woff = 0;
          eof = false;
        }
        :: srv.conns;
      go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

(* Longest unterminated frame a connection may send.  Real frames are
   far smaller: the largest SPEC source is ~3 KB before escaping. *)
let max_line = 1 lsl 20

(* Submit the frames completed by the [k] bytes just read into
   [srv.chunk], the first one prefixed by the buffered tail, and buffer
   the new tail.  Only the new bytes are scanned. *)
let feed_chunk srv conn k =
  let rec go start i =
    if i = k then Buffer.add_subbytes conn.rbuf srv.chunk start (k - start)
    else if Bytes.get srv.chunk i <> '\n' then go start (i + 1)
    else begin
      Buffer.add_subbytes conn.rbuf srv.chunk start (i - start);
      let n = Buffer.length conn.rbuf in
      let n = if n > 0 && Buffer.nth conn.rbuf (n - 1) = '\r' then n - 1 else n in
      let line = Buffer.sub conn.rbuf 0 n in
      Buffer.clear conn.rbuf;
      if line <> "" then submit srv.engine conn.cl line;
      go (i + 1) (i + 1)
    end
  in
  go 0 0

(* Read until the socket would block.  A tail past [max_line] gets one
   client-level error and ends the connection like EOF, so its sessions
   close once the error is flushed. *)
let read_conn srv conn =
  let rec go () =
    match Unix.read conn.fd srv.chunk 0 (Bytes.length srv.chunk) with
    | 0 -> conn.eof <- true
    | k ->
      feed_chunk srv conn k;
      if Buffer.length conn.rbuf > max_line then begin
        Buffer.reset conn.rbuf;
        client_reply conn.cl
          (Proto.Error (Printf.sprintf "frame longer than %d bytes" max_line));
        conn.eof <- true
      end
      else go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      ()
    | exception Unix.Unix_error _ -> conn.eof <- true
  in
  go ()

let unsent conn = Buffer.length conn.wbuf - conn.woff

(* Append the outbox to [wbuf] and write until the socket would block.
   Each write stages at most one chunk, and the sent prefix is dropped
   once it outgrows what is left, so a slow reader's backlog costs time
   linear in its bytes. *)
let flush_conn srv conn =
  List.iter
    (fun l ->
      Buffer.add_string conn.wbuf l;
      Buffer.add_char conn.wbuf '\n')
    (output conn.cl);
  let rec go () =
    let n = min (unsent conn) (Bytes.length srv.chunk) in
    if n > 0 then begin
      Buffer.blit conn.wbuf conn.woff srv.chunk 0 n;
      match Unix.single_write conn.fd srv.chunk 0 n with
      | k ->
        conn.woff <- conn.woff + k;
        go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error _ ->
        (* Peer reset: drop the pending bytes; the EOF path below reaps
           the connection and closes its sessions. *)
        Buffer.clear conn.wbuf;
        conn.woff <- 0;
        conn.eof <- true
    end
  in
  go ();
  if conn.woff > unsent conn then begin
    let rest = Buffer.sub conn.wbuf conn.woff (unsent conn) in
    Buffer.clear conn.wbuf;
    Buffer.add_string conn.wbuf rest;
    conn.woff <- 0
  end

(* At most one shard-0 job runs between the read and the flush, so
   socket I/O waits for at most one slice or one other verb.  While
   shard 0 still has queued work the pass leaves a wake in the pipe, so
   the next [select] on {!server_fds} returns at once. *)
let server_poll srv =
  if not srv.sclosed then begin
    let t = srv.engine in
    clear_wake t;
    accept_pending srv;
    List.iter (fun conn -> if not conn.eof then read_conn srv conn) srv.conns;
    ignore (Sched.run_local t.sched);
    List.iter (flush_conn srv) srv.conns;
    let live, dead =
      List.partition (fun c -> not c.eof || unsent c > 0) srv.conns
    in
    srv.conns <- live;
    List.iter
      (fun conn ->
        close_client srv.engine conn.cl;
        (try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with _ -> ());
        try Unix.close conn.fd with _ -> ())
      dead;
    if (not t.down) && Sched.local_pending t.sched then wake t
  end

(* A connection past EOF stays only to send what it still owes: it
   waits for writability, never readability (EOF is always readable). *)
let server_fds srv =
  (if srv.engine.down then [] else [ srv.engine.wake_r ])
  @ (srv.lsock :: List.filter_map (fun c -> if c.eof then None else Some c.fd) srv.conns)

let serve_for ?scrape srv ~seconds =
  let deadline = Unix.gettimeofday () +. seconds in
  let scrape_fds = Option.to_list (Option.map Scrape.fd scrape) in
  let rec go () =
    let now = Unix.gettimeofday () in
    if now < deadline && not srv.sclosed then begin
      let writes =
        List.filter_map (fun c -> if unsent c > 0 then Some c.fd else None) srv.conns
      in
      (try
         ignore (Unix.select (scrape_fds @ server_fds srv) writes [] (deadline -. now))
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      server_poll srv;
      Option.iter (fun s -> ignore (Scrape.poll s)) scrape;
      go ()
    end
  in
  go ()

let server_close srv =
  if not srv.sclosed then begin
    server_poll srv;
    srv.sclosed <- true;
    List.iter
      (fun conn ->
        close_client srv.engine conn.cl;
        try Unix.close conn.fd with _ -> ())
      srv.conns;
    srv.conns <- [];
    try Unix.close srv.lsock with _ -> ()
  end
