(* dbreakd's engine: many independent debug sessions multiplexed over
   the dbp-wire/1 protocol, sharded across domains by {!Sched}.

   Division of labor:

   - The *main thread* (whoever calls {!submit} / {!server_poll})
     parses frames, routes them, owns the session table and the daemon
     registry ([commands_served]), and answers client-level frames
     ([hello], unknown-session errors) under the reserved sid ["-"].

   - A session's *shard domain* executes its commands in arrival
     order: opening (compile → instrument → load), arming, fuel-sliced
     running with async hit streaming, retroactive queries, closing.
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
      (* pending continuation of a sliced [run].  Checked before
         [cmdq], so slicing yields to other sessions on the shard but
         never reorders this session's own command stream.  Shard-only
         state. *)
  mutable seq : int;  (* bumped only on the owning shard *)
  mutable session : Session.t option;  (* None until [open] completes *)
  mutable dbg : Debugger.t option;
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

let parse_opt = function
  | "none" | "0" -> Ok Instrument.O0
  | "symbol" | "sym" -> Ok Instrument.O_symbol
  | "full" | "loop" -> Ok Instrument.O_full
  | s -> Error (Printf.sprintf "unknown optimization level %S" s)

let opt_name = function
  | Instrument.O0 -> "none"
  | Instrument.O_symbol -> "symbol"
  | Instrument.O_full -> "full"

let hit_sink t sess = Sched.sink t.sched ~shard:sess.shard

let do_open t sess source strategy_s opt_s =
  match sess.session with
  | Some _ -> emit sess (Proto.Error "session already open")
  | None ->
    let strategy =
      try Ok (Strategy.of_string strategy_s)
      with Invalid_argument m -> Error m
    in
    (match (strategy, parse_opt opt_s) with
    | Error m, _ | _, Error m -> emit sess (Proto.Error m)
    | Ok strategy, Ok opt -> (
      let named =
        match source with
        | Proto.Workload w -> (
          match Workloads.Spec.find w with
          | Some spec -> Ok (w, spec.Workloads.Workload.source)
          | None -> Error (Printf.sprintf "unknown workload %S" w))
        | Proto.Program src -> Ok ("program", src)
      in
      match named with
      | Error m -> emit sess (Proto.Error m)
      | Ok (name, src) ->
        let options =
          { Instrument.default_options with strategy; opt }
        in
        let telemetry = Telemetry.create () in
        Telemetry.set_tag telemetry "source" name;
        (* Retroactive queries are first-class verbs, so every daemon
           session records through a checkpoint journal. *)
        let session =
          Session.create ~options ~telemetry ~checkpoint_every:10_000 src
        in
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
        sess.session <- Some session;
        sess.dbg <- Some dbg;
        emit sess
          (Proto.Opened
             { name; strategy = Strategy.to_string strategy; opt = opt_name opt })))

let with_session sess f =
  match sess.session with
  | None -> emit sess (Proto.Error "session not open")
  | Some s -> f s

let with_debugger sess f =
  match sess.dbg with
  | None -> emit sess (Proto.Error "session not open")
  | Some d -> f d

let armed_reply sess name (wp : Debugger.watchpoint) =
  sess.watches <- (name, wp) :: sess.watches;
  let r = wp.Debugger.region in
  emit sess
    (Proto.Armed { name; lo = r.Region.lo; len = Region.size_bytes r })

let do_arm sess target =
  with_debugger sess (fun dbg ->
      match target with
      | Proto.Var v -> armed_reply sess v (Debugger.watch dbg v)
      | Proto.Region { lo; len } ->
        let name = Printf.sprintf "region:0x%x+%d" lo len in
        armed_reply sess name
          (Debugger.watch_addr dbg ~name ~addr:lo ~size_bytes:len ()))

let do_disarm sess name =
  with_debugger sess (fun dbg ->
      match List.assoc_opt name sess.watches with
      | None -> emit sess (Proto.Error (Printf.sprintf "no watch named %S" name))
      | Some wp ->
        Debugger.disarm dbg wp;
        sess.watches <- List.remove_assoc name sess.watches;
        emit sess (Proto.Disarmed { name }))

(* The run verb: execute [fuel] instructions in [t.slice]-sized
   quanta.  After each quantum the continuation is parked in
   [sess.cont] and a fresh step job is posted, landing behind other
   sessions' queued work on the shard — round-robin, one session
   cannot starve the loop.  [step] checks [cont] before the command
   queue, so the session's own later commands never overtake the run.
   Slicing is invisible on the wire: hits stream as they fire and
   exactly one terminal [running]/[exited] reply closes the command,
   whatever the quantum. *)
let do_run t sess repost fuel =
  with_session sess (fun s ->
      let start_insn = Machine.Cpu.instr_count s.Session.cpu in
      let executed () = Machine.Cpu.instr_count s.Session.cpu - start_insn in
      let rec slice remaining =
        match Session.run_slice ~fuel:(min t.slice remaining) s with
        | `Exited (code, output) ->
          sess.exited <- Some code;
          emit sess (Proto.Exited { code; executed = executed (); output })
        | `Running n ->
          let remaining = remaining - n in
          if remaining <= 0 then
            emit sess (Proto.Running { executed = executed () })
          else begin
            sess.cont <- Some (fun () -> slice remaining);
            repost ()
          end
      in
      slice (max 0 fuel))

(* Every shard-side command runs under this: anything the session
   machinery raises becomes a deterministic error reply instead of
   killing the shard (mirrors dbreak's handler set). *)
let guarded sess f =
  try f () with
  | Sys_error m | Invalid_argument m | Failure m -> emit sess (Proto.Error m)
  | Replay.Determinism_violation { insn; expected; actual } ->
    emit sess
      (Proto.Error
         (Printf.sprintf
            "replay diverged from the recorded run at insn %d (digest %s, \
             expected %s)"
            insn actual expected))
  | Minic.Compile.Error e ->
    emit sess
      (Proto.Error (Printf.sprintf "%s error: %s" e.Minic.Compile.phase e.message))
  | Machine.Cpu.Fault { pc; reason } ->
    emit sess (Proto.Error (Printf.sprintf "machine fault at 0x%x: %s" pc reason))
  | Machine.Cpu.Out_of_fuel { executed } ->
    emit sess (Proto.Error (Printf.sprintf "out of fuel after %d instructions" executed))
  | Debugger.No_such_variable v ->
    emit sess (Proto.Error (Printf.sprintf "no such variable: %s" v))

let resolve sess s target k =
  match Session.resolve_addr s target with
  | Some addr -> k addr
  | None ->
    emit sess
      (Proto.Error
         (Printf.sprintf
            "cannot resolve %S to a data address (expected 0x-hex, decimal, \
             or a global variable name)"
            target))

let recorded_only sess s k =
  if sess.exited = None then
    emit sess (Proto.Error "program still running: run it to completion first")
  else begin
    sess.in_query <- true;
    Fun.protect ~finally:(fun () -> sess.in_query <- false) (fun () -> k s)
  end

let wtype_name = function
  | Some wt -> Write_type.to_string wt
  | None -> "untyped"

let do_last_write sess target =
  with_session sess (fun s ->
      resolve sess s target (fun addr ->
          recorded_only sess s (fun s ->
              match Session.last_write s ~addr with
              | None -> emit sess (Proto.Never_written { target; addr })
              | Some { Session.wr_hit = h; wr_write_type } ->
                emit sess
                  (Proto.Last_write
                     {
                       target;
                       addr;
                       insn = h.Replay.h_insn;
                       pc = h.Replay.h_pc;
                       old_v = h.Replay.h_old;
                       new_v = h.Replay.h_new;
                       wtype = wtype_name wr_write_type;
                       func =
                         Option.value ~default:"?"
                           (Debugger.function_of_pc s h.Replay.h_pc);
                     }))))

let do_history sess target len =
  with_session sess (fun s ->
      resolve sess s target (fun lo ->
          recorded_only sess s (fun s ->
              let writes = Session.write_history s ~lo ~hi:(lo + max 0 len) in
              emit sess (Proto.History { count = List.length writes });
              List.iter
                (fun { Session.wr_hit = h; wr_write_type } ->
                  emit sess
                    (Proto.Write
                       {
                         insn = h.Replay.h_insn;
                         pc = h.Replay.h_pc;
                         addr = h.Replay.h_addr;
                         old_v = h.Replay.h_old;
                         new_v = h.Replay.h_new;
                         wtype = wtype_name wr_write_type;
                       }))
                writes)))

let do_travel sess insn =
  with_session sess (fun s ->
      recorded_only sess s (fun s ->
          let re = Session.time_travel s ~insn in
          emit sess
            (Proto.Traveled
               { insn; reexecuted = re; pc = Machine.Cpu.pc s.Session.cpu })))

let do_report sess =
  with_session sess (fun s ->
      emit sess (Proto.Report_json (Export.to_json_string (Session.report s))))

let do_verify sess =
  with_session sess (fun s ->
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
  | Some s -> Telemetry.absorb (hit_sink t sess) (Session.report s)
  | None -> ());
  sess.closed <- true;
  emit sess Proto.Closed;
  Mutex.lock t.mu;
  Hashtbl.remove t.sessions sess.sid;
  Mutex.unlock t.mu

let exec t sess repost cmd =
  match cmd with
  | Proto.Hello -> assert false (* answered client-side *)
  | Proto.Open { source; strategy; opt; _ } -> do_open t sess source strategy opt
  | Proto.Arm { target; _ } -> do_arm sess target
  | Proto.Disarm { name; _ } -> do_disarm sess name
  | Proto.Run { fuel; _ } -> do_run t sess repost fuel
  | Proto.Query_last_write { target; _ } -> do_last_write sess target
  | Proto.Query_history { target; len; _ } -> do_history sess target len
  | Proto.Travel { insn; _ } -> do_travel sess insn
  | Proto.Report _ -> do_report sess
  | Proto.Verify _ -> do_verify sess
  | Proto.Close _ -> do_close t sess

(* One scheduler job = one step of one session: resume a parked run
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
  else
    match sess.cont with
    | Some k ->
      sess.cont <- None;
      guarded sess k
    | None -> (
      match take_cmd sess with
      | Some cmd -> guarded sess (fun () -> exec t sess (repost t sess) cmd)
      | None -> ())

(* One wake per job, and only for a job that emitted: a step streaming
   hundreds of hits costs the main loop one pass, not one per line. *)
and repost t sess () =
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
  repost t sess ()

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
                dbg = None;
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
        | Some s when not sess.closed -> Session.report s :: acc
        | _ -> acc)
      t.sessions []
  in
  Mutex.unlock t.mu;
  Telemetry.merge
    (Telemetry.report t.reg :: Sched.merged_report t.sched :: live)

let metrics_body t = Export.to_prometheus (merged_report t)

let shutdown t =
  Sched.shutdown t.sched;
  if not t.down then begin
    t.down <- true;
    (try Unix.close t.wake_r with _ -> ());
    try Unix.close t.wake_w with _ -> ()
  end

(* --- wire listener ----------------------------------------------------- *)

(* Same nonblocking-accept discipline as {!Scrape}, but connections are
   long-lived: each one accumulates bytes into a line buffer, feeds
   complete frames to {!submit}, and flushes its client's outbox with
   nonblocking writes.  Unsent bytes wait in [wbuf] from offset [woff]
   until the socket drains ({!serve_for} selects for writability while
   any are pending). *)

type conn = {
  fd : Unix.file_descr;
  cl : client;
  rbuf : Buffer.t;
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

let listen ?(host = Unix.inet_addr_loopback) ?(backlog = 64) t ~port () =
  (* A write to a peer that reset would otherwise kill the process
     before [flush_conn] sees EPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (host, port));
     Unix.listen sock backlog;
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

(* Split [conn.rbuf] at newlines; unterminated tails stay buffered. *)
let feed_lines srv conn =
  let data = Buffer.contents conn.rbuf in
  Buffer.clear conn.rbuf;
  let rec go start =
    match String.index_from_opt data start '\n' with
    | None ->
      if start < String.length data then
        Buffer.add_substring conn.rbuf data start (String.length data - start)
    | Some i ->
      let line =
        let l = String.sub data start (i - start) in
        if l <> "" && l.[String.length l - 1] = '\r' then
          String.sub l 0 (String.length l - 1)
        else l
      in
      if line <> "" then submit srv.engine conn.cl line;
      go (i + 1)
  in
  go 0

let read_conn srv conn =
  let rec go () =
    match Unix.read conn.fd srv.chunk 0 (Bytes.length srv.chunk) with
    | 0 -> conn.eof <- true
    | k ->
      Buffer.add_subbytes conn.rbuf srv.chunk 0 k;
      go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      ()
    | exception Unix.Unix_error _ -> conn.eof <- true
  in
  go ();
  feed_lines srv conn

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

let server_poll srv =
  if not srv.sclosed then begin
    clear_wake srv.engine;
    accept_pending srv;
    List.iter
      (fun conn ->
        if not conn.eof then read_conn srv conn;
        flush_conn srv conn)
      srv.conns;
    let live, dead =
      List.partition (fun c -> not c.eof || unsent c > 0) srv.conns
    in
    srv.conns <- live;
    List.iter
      (fun conn ->
        close_client srv.engine conn.cl;
        (try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with _ -> ());
        try Unix.close conn.fd with _ -> ())
      dead
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
