(* The service workloads: the real dbreakd binary, driven over dbp-wire/1
   by this one single-threaded process through at most two connections.
   Every command is timed from when it was due — the previous reply in
   a session, or the session's arrival time — to its terminal reply. *)

open Dbp
open Inputs

let now = Meter.now

(* --- the daemon process ---------------------------------------------------- *)

type daemon = {
  pid : int;
  port : int;
  metrics_port : int;
  out : in_channel;  (** its stdout, kept open so it never sees a broken pipe *)
  mutable sent : int;  (** frames sent to it: what commands_served must read *)
  mutable next_sid : int;
}

let live : daemon list ref = ref []

let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  close_in_noerr d.out;
  live := List.filter (fun d' -> d'.pid <> d.pid) !live

let () = at_exit (fun () -> List.iter stop !live)

let port_after prefix line =
  let n = String.length prefix in
  let rec find i =
    if i + n > String.length line then failwith ("dbreakd: unexpected banner: " ^ line)
    else if String.sub line i n = prefix then i + n
    else find (i + 1)
  in
  let start = find 0 in
  let stop = ref start in
  while !stop < String.length line && line.[!stop] >= '0' && line.[!stop] <= '9' do
    incr stop
  done;
  int_of_string (String.sub line start (!stop - start))

(* Two shards: the machine this benchmark is calibrated on has two
   cores.  The daemon exits by itself after [serve_for] seconds should
   this process die without stopping it. *)
let spawn exe =
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let argv =
    [| exe; "--port"; "0"; "--shards"; "2"; "--metrics-port"; "0"; "--serve-for"; "900" |]
  in
  let pid = Unix.create_process exe argv null w Unix.stderr in
  Unix.close null;
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  let d = { pid; port = 0; metrics_port = 0; out; sent = 0; next_sid = 0 } in
  match
    let l1 = input_line out in
    let l2 = input_line out in
    (port_after "127.0.0.1:" l1, port_after "127.0.0.1:" l2)
  with
  | port, metrics_port ->
    let d = { d with port; metrics_port } in
    live := d :: !live;
    d
  | exception e ->
    stop d;
    raise e

(* [GET /metrics]: the daemon's merged counters, by Prometheus name. *)
let scrape d =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, d.metrics_port));
      let req = "GET /metrics HTTP/1.0\r\n\r\n" in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let b = Buffer.create 65536 in
      let chunk = Bytes.create 65536 in
      let rec go () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | k -> Buffer.add_subbytes b chunk 0 k; go ()
      in
      go ();
      let value name =
        List.find_map
          (fun l ->
            match String.split_on_char ' ' l with
            | [ key; v ] when key = name || String.starts_with ~prefix:(name ^ "{") key ->
              int_of_string_opt v
            | _ -> None)
          (String.split_on_char '\n' (Buffer.contents b))
      in
      (value "dbp_sessions_open", value "dbp_commands_served"))

(* The daemon's own bookkeeping must agree with the client's: no session
   left open, and every frame sent counted as served.  A close reply is
   emitted just before the session leaves the table, so allow a moment. *)
let check_metrics (m : Meter.t) d =
  let rec go tries =
    match scrape d with
    | Some 0, Some served when served = d.sent -> ()
    | opened, served when tries = 0 ->
      let show = function Some n -> string_of_int n | None -> "?" in
      m.Meter.errors <-
        Printf.sprintf "/metrics: sessions_open %s, commands_served %s, client sent %d"
          (show opened) (show served) d.sent
        :: m.Meter.errors
    | _ -> Unix.sleepf 0.05; go (tries - 1)
  in
  go 40

(* --- connections ----------------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  daemon : daemon;
  rbuf : Buffer.t;
  mutable wpend : string;
}

let connect d =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, d.port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.set_nonblock fd;
  { fd; daemon = d; rbuf = Buffer.create 65536; wpend = "" }

let flush c =
  if c.wpend <> "" then
    match Unix.write_substring c.fd c.wpend 0 (String.length c.wpend) with
    | k -> c.wpend <- String.sub c.wpend k (String.length c.wpend - k)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

(* The frames of a traced run, kept for timing the codec afterwards. *)
let recorded_commands : string list ref = ref []
let recorded_replies : string list ref = ref []
let recording = ref false
let record_cap = 50_000

let record r line =
  if !recording && List.compare_length_with !r record_cap < 0 then r := line :: !r

(* Wire traffic of this process: frames sent, reply bytes received. *)
let frames_out = ref 0
let bytes_in = ref 0

let send c line =
  record recorded_commands line;
  c.wpend <- c.wpend ^ line ^ "\n";
  c.daemon.sent <- c.daemon.sent + 1;
  incr frames_out;
  flush c

let chunk = Bytes.create 65536

(* Read what is available and hand over every complete line. *)
let read_lines c f =
  let rec go () =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> failwith "dbreakd closed the connection"
    | k ->
      bytes_in := !bytes_in + k;
      Buffer.add_subbytes c.rbuf chunk 0 k;
      if k = Bytes.length chunk then go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  go ();
  let data = Buffer.contents c.rbuf in
  Buffer.clear c.rbuf;
  let rec split start =
    match String.index_from_opt data start '\n' with
    | None -> Buffer.add_substring c.rbuf data start (String.length data - start)
    | Some i ->
      f (String.sub data start (i - start));
      split (i + 1)
  in
  split 0

(* One blocking request/reply outside the session machinery: the
   set-up handshake and the hello round-trip floor. *)
let hello c =
  let t0 = now () in
  send c (Proto.encode_command Proto.Hello);
  let got = ref false in
  let deadline = t0 +. 30.0 in
  while not !got do
    if now () > deadline then failwith "dbreakd: no hello reply";
    (try ignore (Unix.select [ c.fd ] [] [] 0.05)
     with Unix.Unix_error (Unix.EINTR, _, _) -> ());
    read_lines c (fun line ->
        record recorded_replies line;
        match Proto.decode_reply line with
        | Ok { Proto.r_body = Proto.Hello_ok; _ } -> got := true
        | _ -> failwith ("dbreakd: unexpected reply to hello: " ^ line))
  done;
  now () -. t0

(* Set-up: spawn the daemon and wait for its first hello reply. *)
let start_daemon exe =
  let t0 = now () in
  let d = spawn exe in
  let c = connect d in
  ignore (hello c);
  (now () -. t0, d, c)

(* --- sessions -------------------------------------------------------------- *)

type verb = Open | Arm | Run | Last_write | History | Travel | Verify | Close

let verb_name = function
  | Open -> "open"
  | Arm -> "arm"
  | Run -> "run"
  | Last_write | History -> "query"
  | Travel -> "travel"
  | Verify -> "verify"
  | Close -> "close"

let interactive_script = [ Open; Arm; Run; Last_write; History; Travel; Verify; Close ]
let fleet_script = [ Open; Arm; Run; Last_write; Close ]

(* What one session is to run: a program, its watched global and the
   fraction of the run to travel back to. *)
type job = { prog : program; by_name : bool; global : string; frac : float; script : verb list }

type answers = {
  mutable hits : int;
  mutable exit_code : int option;
  mutable executed : int;
  mutable last : (int * int * int * int) option option;
  mutable history : int option;
  mutable traveled : (int * int) option;
  mutable verified : (int * int * int * int) option;
}

type ws = {
  sid : string;
  job : job;
  conn : conn;
  ms : Meter.session;
  slot : int;
  tracer : Trace.t option;
  mutable script : verb list;
  mutable verb : verb;
  mutable sent_at : float;
  mutable writes_owed : int;
  mutable failed : bool;
  ans : answers;
}

type st = {
  m : Meter.t;
  conns : conn array;
  live : (string, ws) Hashtbl.t;
  mutable finished : ws list;
  busy : (int, unit) Hashtbl.t;  (** occupied slots *)
  tracers : (int, Trace.t) Hashtbl.t;  (** one per slot when tracing *)
  tracing : bool;
}

let create_st ?(tracing = false) conns =
  {
    m = Meter.create ();
    conns;
    live = Hashtbl.create 64;
    finished = [];
    busy = Hashtbl.create 16;
    tracers = Hashtbl.create 16;
    tracing;
  }

let command s v =
  let sid = s.sid and j = s.job in
  match v with
  | Open ->
    let source = if j.by_name then Proto.Workload j.prog.name else Proto.Program j.prog.source in
    Proto.Open { sid; source; strategy = "BitmapInlineRegisters"; opt = "symbol" }
  | Arm -> Proto.Arm { sid; target = Proto.Var j.global }
  | Run -> Proto.Run { sid; fuel }
  | Last_write -> Proto.Query_last_write { sid; target = j.global }
  | History -> Proto.Query_history { sid; target = j.global; len = Inproc.history_bytes }
  | Travel ->
    Proto.Travel { sid; insn = int_of_float (j.frac *. float_of_int s.ans.executed) }
  | Verify -> Proto.Verify { sid }
  | Close -> Proto.Close { sid }

let finish st s =
  Hashtbl.remove st.live s.sid;
  Hashtbl.remove st.busy s.slot;
  st.finished <- s :: st.finished;
  if not s.failed then begin
    s.ms.Meter.ok <- true;
    s.ms.Meter.wall <- now () -. s.ms.Meter.start
  end;
  Option.iter Trace.end_span s.tracer

let rec issue st s ~due =
  match s.script with
  | [] -> finish st s
  | v :: rest ->
    s.script <- rest;
    s.verb <- v;
    let t = now () in
    st.m.Meter.late <- (t -. due) :: st.m.Meter.late;
    s.sent_at <- t;
    Option.iter (fun tr -> Trace.begin_span tr ("wire." ^ verb_name v)) s.tracer;
    send s.conn (Proto.encode_command (command s v))

and complete st s ~woke =
  Meter.record_cmd st.m (verb_name s.verb) (now () -. s.sent_at);
  Option.iter Trace.end_span s.tracer;
  issue st s ~due:woke

let on_reply st ~woke line =
  record recorded_replies line;
  match Proto.decode_reply line with
  | Error e -> failwith (Printf.sprintf "undecodable reply %S: %s" line e)
  | Ok { Proto.r_sid; r_body; _ } -> (
    match Hashtbl.find_opt st.live r_sid with
    | None -> failwith ("reply for no live session: " ^ line)
    | Some s -> (
      let a = s.ans in
      let done_ () = complete st s ~woke in
      match r_body with
      | Proto.Hit _ -> a.hits <- a.hits + 1
      | Proto.History { count } ->
        a.history <- Some count;
        s.writes_owed <- count;
        if count = 0 then done_ ()
      | Proto.Write _ ->
        s.writes_owed <- s.writes_owed - 1;
        if s.writes_owed = 0 then done_ ()
      | Proto.Error msg ->
        Meter.fail st.m s.ms (verb_name s.verb ^ ": " ^ msg);
        s.failed <- true;
        (* The daemon keeps even a failed open in its table: close it. *)
        s.script <- (if s.verb = Close then [] else [ Close ]);
        done_ ()
      | Proto.Running _ ->
        Meter.fail st.m s.ms "run ran out of fuel";
        s.failed <- true;
        done_ ()
      | Proto.Exited { code; executed; _ } ->
        a.exit_code <- Some code;
        a.executed <- executed;
        done_ ()
      | Proto.Last_write { insn; pc; old_v; new_v; _ } ->
        a.last <- Some (Some (insn, pc, old_v, new_v));
        done_ ()
      | Proto.Never_written _ ->
        a.last <- Some None;
        done_ ()
      | Proto.Traveled { reexecuted; pc; _ } ->
        a.traveled <- Some (reexecuted, pc);
        done_ ()
      | Proto.Verified { total; proved; refuted; unknown } ->
        a.verified <- Some (total, proved, refuted, unknown);
        done_ ()
      | Proto.Hello_ok | Proto.Opened _ | Proto.Armed _ | Proto.Disarmed _
      | Proto.Report_json _ | Proto.Closed ->
        done_ ()))

let tracer_for st slot =
  match Hashtbl.find_opt st.tracers slot with
  | Some tr -> tr
  | None ->
    let tr = Trace.create ~clock:now () in
    Hashtbl.replace st.tracers slot tr;
    tr

let start_session st ~slot ~due job =
  let d = st.conns.(0).daemon in
  let n = d.next_sid in
  d.next_sid <- n + 1;
  let s =
    {
      sid = Printf.sprintf "s%d" n;
      job;
      conn = st.conns.(n mod Array.length st.conns);
      ms = Meter.new_session ~start:due st.m job.prog.name;
      slot;
      tracer = (if st.tracing then Some (tracer_for st slot) else None);
      script = job.script;
      verb = Open;
      sent_at = due;
      writes_owed = 0;
      failed = false;
      ans =
        {
          hits = 0;
          exit_code = None;
          executed = 0;
          last = None;
          history = None;
          traveled = None;
          verified = None;
        };
    }
  in
  Hashtbl.replace st.busy slot ();
  Hashtbl.replace st.live s.sid s;
  Option.iter
    (fun tr -> Trace.begin_span tr ~args:[ ("program", job.prog.name); ("sid", s.sid) ] "session")
    s.tracer;
  issue st s ~due;
  st.m.Meter.backlog_max <- max st.m.Meter.backlog_max (Hashtbl.length st.live)

let free_slot st =
  let rec go i = if Hashtbl.mem st.busy i then go (i + 1) else i in
  go 0

(* One select round: wait for replies (or [timeout]), then process every
   complete line and push pending writes. *)
let pump st ~timeout =
  let fds = Array.to_list (Array.map (fun c -> c.fd) st.conns) in
  let wfds =
    List.filter_map (fun c -> if c.wpend <> "" then Some c.fd else None) (Array.to_list st.conns)
  in
  (try ignore (Unix.select fds wfds [] (Float.max 0.0 timeout))
   with Unix.Unix_error (Unix.EINTR, _, _) -> ());
  let woke = now () in
  Array.iter (fun c -> read_lines c (on_reply st ~woke); flush c) st.conns;
  Meter.sample_rss st.m (string_of_int st.conns.(0).daemon.pid)

(* Closed loop: [slots] sessions in flight; a slot starts its next job
   as soon as its session closes, while [next] still yields jobs. *)
let closed_loop st ~slots ~next =
  Meter.start st.m;
  let fill () =
    for slot = 0 to slots - 1 do
      if not (Hashtbl.mem st.busy slot) then
        match next () with Some job -> start_session st ~slot ~due:(now ()) job | None -> ()
    done
  in
  fill ();
  while Hashtbl.length st.live > 0 do
    pump st ~timeout:0.05;
    fill ()
  done;
  Meter.stop st.m

(* Open loop: each job starts at its arrival time whatever is in
   flight; a session's latency counts from that time. *)
let open_loop st (jobs : (float * job) array) =
  Meter.start st.m;
  let t0 = st.m.Meter.t_start in
  let i = ref 0 in
  let n = Array.length jobs in
  while !i < n || Hashtbl.length st.live > 0 do
    while !i < n && t0 +. fst jobs.(!i) <= now () do
      start_session st ~slot:(free_slot st) ~due:(t0 +. fst jobs.(!i)) (snd jobs.(!i));
      incr i
    done;
    let timeout = if !i < n then Float.min 0.05 (t0 +. fst jobs.(!i) -. now ()) else 0.05 in
    pump st ~timeout
  done;
  Meter.stop st.m

(* --- correctness ----------------------------------------------------------- *)

(* The in-process answer to the same job, through the same pipeline
   dbreakd runs; memoized per (program, global, travel point, script). *)
let references = Hashtbl.create 64

let reference job =
  let key = (job.prog.name, job.global, job.frac, job.script) in
  match Hashtbl.find_opt references key with
  | Some r -> r
  | None ->
    let sess =
      Session.create ~options:replay_options ~checkpoint_every:Inproc.checkpoint_every
        job.prog.source
    in
    let dbg = Debugger.create sess in
    ignore (Debugger.watch dbg job.global);
    let code, _ = Session.run ~fuel sess in
    (* Before the queries: replay re-executes stores the watch sees again. *)
    let hits = List.length (Debugger.events dbg) in
    let executed = Machine.Cpu.instr_count sess.Session.cpu in
    let addr = Option.get (Session.resolve_addr sess job.global) in
    let wants v = List.mem v job.script in
    (* Queries in script order: [let]s, since record fields evaluate in
       no fixed order. *)
    let last =
      if wants Last_write then
        Some
          (Option.map
             (fun { Session.wr_hit = h; _ } ->
               (h.Replay.h_insn, h.Replay.h_pc, h.Replay.h_old, h.Replay.h_new))
             (Session.last_write sess ~addr))
      else None
    in
    let history =
      if wants History then
        Some (List.length (Session.write_history sess ~lo:addr ~hi:(addr + Inproc.history_bytes)))
      else None
    in
    let traveled =
      if wants Travel then
        let insn = int_of_float (job.frac *. float_of_int executed) in
        let re = Session.time_travel sess ~insn in
        Some (re, Machine.Cpu.pc sess.Session.cpu)
      else None
    in
    let verified =
      if wants Verify then
        let v = Verify.run ~audit:(Audit.report sess.Session.audit) sess.Session.plan in
        Some
          (List.length v.Verify.v_obligations, v.Verify.v_proved, v.Verify.v_refuted,
           v.Verify.v_unknown)
      else None
    in
    let r = { hits; exit_code = Some code; executed; last; history; traveled; verified } in
    Hashtbl.replace references key r;
    r

let verify st =
  List.iter
    (fun s ->
      if not s.failed then begin
        let r = reference s.job and a = s.ans in
        let check cond what =
          if not cond then begin
            s.failed <- true;
            Meter.fail st.m s.ms (what ^ " differs from the in-process session")
          end
        in
        check
          (a.exit_code = Some s.job.prog.expected_exit && r.exit_code = a.exit_code)
          "exit code";
        check (a.hits = r.hits) "hit count";
        check (a.last = r.last) "last-write";
        check (a.history = r.history) "history";
        check (a.traveled = r.traveled) "travel";
        check (a.verified = r.verified) "verify";
        match a.verified with
        | Some (_, _, refuted, unknown) -> check (refuted = 0 && unknown = 0) "verify verdict"
        | None -> ()
      end)
    st.finished

(* --- workloads ------------------------------------------------------------- *)

type t = {
  daemon : daemon;
  conns : conn array;
  next_job : Random.State.t -> job;
  arrivals : float -> (float * job) array option;
      (** open-loop schedule for a span of seconds; [None] = closed loop *)
  rng : Random.State.t;
}

let interactive_slots = 8

(* svc-interactive: 8 sessions over 2 connections, closed loop, small
   programs from a seeded pool, each with its own travel point. *)
let interactive_jobs rng =
  let pool = Inputs.small rng in
  let fracs = Array.map (fun _ -> Random.State.float rng 1.0) pool in
  let watch = rotation rng in
  fun rng ->
    let i = Random.State.int rng (Array.length pool) in
    {
      prog = pool.(i);
      by_name = false;
      global = watch pool.(i);
      frac = fracs.(i);
      script = interactive_script;
    }

(* svc-fleet: SPEC sessions opened by name, arriving at [fleet_rate] per
   second.  On the 2-core machine this was calibrated on the backlog
   stops draining near 20/s; at half that, queueing made the median
   session time spread 18% over ten seeds, at 6/s under 8%.  gcc and
   espresso, the two programs over 3M instructions, are left to the
   in-process workloads: their sessions run several times longer than
   the rest and would halve the sessions a run can sample. *)
let fleet_rate = 6

let fleet_jobs rng =
  let programs =
    Array.of_list
      (List.filter
         (fun p -> not (List.mem p.name [ "001.gcc1.35"; "008.espresso" ]))
         (Array.to_list (spec ())))
  in
  let watch = rotation rng in
  let order = ref [] in
  fun rng ->
    if !order = [] then order := Array.to_list (shuffle rng programs);
    let p = List.hd !order in
    order := List.tl !order;
    { prog = p; by_name = true; global = watch p; frac = 0.0; script = fleet_script }

let loop t ~seconds ~tracing =
  let st = create_st ~tracing t.conns in
  (match t.arrivals seconds with
  | Some jobs -> open_loop st jobs
  | None ->
    let deadline = now () +. seconds in
    closed_loop st ~slots:interactive_slots ~next:(fun () ->
        if now () < deadline then Some (t.next_job t.rng) else None));
  st

let tracers st = List.map snd (List.sort compare (List.of_seq (Hashtbl.to_seq st.tracers)))

(* One timed set-up whose daemon is stopped straight away. *)
let setup_time exe =
  let dt, d, _ = start_daemon exe in
  stop d;
  dt

(* The daemon the run uses, its connections and its seeded jobs. *)
let setup ~exe ~rng ~fleet =
  let _, d, c = start_daemon exe in
  let conns = [| c; connect d |] in
  let next_job = if fleet then fleet_jobs rng else interactive_jobs rng in
  let arrivals span =
    if not fleet then None
    else
      Some
        (Array.map (fun a -> (a, next_job rng)) (Inputs.arrivals rng ~rate:fleet_rate ~span))
  in
  { daemon = d; conns; next_job; arrivals; rng }

(* The daemon probe of a traced run: hello round trips for the
   main-thread floor, then one sequential interactive session per
   program, on a daemon of its own. *)
let probe ~exe ~tracing (jobs : job list) =
  let _, d, c = start_daemon exe in
  Fun.protect ~finally:(fun () -> stop d) (fun () ->
      let st = create_st ~tracing [| c |] in
      for _ = 1 to 20 do
        Meter.record_cmd st.m "hello" (hello c)
      done;
      let pending = ref jobs in
      closed_loop st ~slots:1 ~next:(fun () ->
          match !pending with
          | [] -> None
          | j :: rest -> pending := rest; Some j);
      verify st;
      check_metrics st.m d;
      st)
