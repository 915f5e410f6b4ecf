(* What a workload loop records: one row per session and one latency per
   command, plus how late the generator issued each command.  End-to-end
   metrics are computed from these rows only. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* A run times its set-up this many times before the loop and as many
   again at its end, and reports the median of all as setup_s: a burst
   of host contention during one of the two stretches does not set it. *)
let setup_reps = 6

(* Host speed.  The shared host changes the CPU speed it gives this
   machine by up to 2x within minutes, and CPU-bound work of every kind
   slows by the same factor (README, "Host speed").  A run times the
   reference computation before each set-up and about ten times a
   second between in-process sessions.  The slowdown is a probe's
   duration over [ref_nominal], the reference's duration on the
   calibration machine when idle; each CPU-bound time is divided by the
   slowdown when it was taken, the median of the last five probes. *)
let ref_nominal = 0.001

(* Probe durations, newest first, and when the last probe ended. *)
let host = ref []
let host_at = ref neg_infinity

let host_probe () =
  let t0 = now () in
  ignore (Sys.opaque_identity (Hostref.run ()));
  let dt = now () -. t0 in
  host := dt :: !host;
  host_at := t0 +. dt;
  dt

(* A probe once the last is a tenth of a second old: the seconds it
   took, 0 when none was due. *)
let host_tick () = if now () -. !host_at >= 0.1 then host_probe () else 0.0

let slowdown_now () = Stats.median (List.filteri (fun i _ -> i < 5) !host) /. ref_nominal

(* Over the whole run, for the report. *)
let slowdown () = Stats.median !host /. ref_nominal

type session = {
  id : int;
  prog : string;
  start : float;  (** when the session was due *)
  mutable wall : float;  (** seconds; infinite when the session failed *)
  mutable ok : bool;
  mutable slow : float;  (** the host's slowdown when the session ended; 1 if not CPU-bound here *)
}

type cmd = { verb : string; dur : float }

type t = {
  mutable sessions : session list;
  mutable cmds : cmd list;
  mutable rounds : (int * float) list;
      (** sessions, seconds at reference speed per in-process round *)
  mutable rss : float list;  (** resident set samples, MB *)
  mutable rss_at : float;
  mutable late : float list;  (** seconds a command was issued after it was due *)
  mutable backlog_max : int;  (** sessions due but not finished, at most *)
  mutable errors : string list;
  mutable t_start : float;
  mutable t_end : float;
  mutable last_end : float;  (** end of the previous in-process command *)
  mutable next_id : int;
}

let create () =
  {
    sessions = [];
    cmds = [];
    rounds = [];
    rss = [];
    rss_at = 0.0;
    late = [];
    backlog_max = 0;
    errors = [];
    t_start = now ();
    t_end = 0.0;
    last_end = 0.0;
    next_id = 0;
  }

let start m = m.t_start <- now ()
let stop m = m.t_end <- now ()

let new_session ?(start = now ()) m prog =
  let s = { id = m.next_id; prog; start; wall = infinity; ok = false; slow = 1.0 } in
  m.next_id <- m.next_id + 1;
  m.sessions <- s :: m.sessions;
  s

let record_cmd m verb dur = m.cmds <- { verb; dur } :: m.cmds

(* A [/proc/PID/status] size field ("VmRSS", "VmHWM"), in MB. *)
let status_mb pid field =
  In_channel.with_open_text (Printf.sprintf "/proc/%s/status" pid) (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> nan
        | Some l -> (
          match String.split_on_char ':' l with
          | [ k; v ] when k = field -> Scanf.sscanf v " %d kB" (fun kb -> float_of_int kb /. 1024.0)
          | _ -> go ())
      in
      go ())

(* Sample the resident set of [pid] at most every tenth of a second. *)
let sample_rss m pid =
  let t = now () in
  if t -. m.rss_at >= 0.1 then begin
    m.rss_at <- t;
    m.rss <- status_mb pid "VmRSS" :: m.rss
  end

let fail m (s : session) msg =
  if List.length m.errors < 20 then
    m.errors <- Printf.sprintf "session %d (%s): %s" s.id s.prog msg :: m.errors;
  s.ok <- false;
  s.wall <- infinity

let check m s cond msg = if not cond then fail m s (Lazy.force msg)

(* Time one in-process command.  In a closed loop a command is due the
   moment the previous one returned, so the gap is the generator's own
   lateness. *)
let cmd m ?trace verb f =
  let t0 = now () in
  if m.last_end > 0.0 then m.late <- (t0 -. m.last_end) :: m.late;
  let r =
    match trace with Some tr -> Trace.with_span tr verb f | None -> f ()
  in
  let t1 = now () in
  record_cmd m verb (t1 -. t0);
  m.last_end <- t1;
  r

(* Run one in-process session body; any exception fails the session. *)
let session m ?trace prog f =
  let s = new_session m prog in
  (match
     match trace with
     | Some tr -> Trace.with_span tr ~args:[ ("program", prog) ] "session" f
     | None -> f ()
   with
  | () ->
    s.ok <- true;
    s.wall <- now () -. s.start;
    s.slow <- slowdown_now ()
  | exception e -> fail m s (Printexc.to_string e));
  s

let attempted m = List.length m.sessions
let failed m = List.length (List.filter (fun s -> not s.ok) m.sessions)

let ms x = x *. 1000.0

(* Session times per program, at reference speed. *)
let per_program m =
  let progs = List.sort_uniq compare (List.map (fun s -> s.prog) m.sessions) in
  List.map
    (fun p ->
      ( p,
        List.filter_map (fun s -> if s.prog = p then Some (s.wall /. s.slow) else None) m.sessions
      ))
    progs

(* Throughput: over whole rounds, the median round's, so a burst of
   host contention that slows a few rounds does not move it; without
   rounds, over the loop's span. *)
let sessions_per_s m =
  match m.rounds with
  | [] -> float_of_int (List.length m.sessions) /. (m.t_end -. m.t_start)
  | rounds -> Stats.median (List.map (fun (n, dt) -> float_of_int n /. dt) rounds)

(* The end-to-end metrics the loop itself yields: throughput and the
   geometric mean over programs of each program's median session. *)
let end_to_end m =
  [
    ("sessions_per_s", sessions_per_s m, "1/s");
    ( "session_geomean_ms",
      ms (Stats.geomean (List.map (fun (_, w) -> Stats.median w) (per_program m))),
      "ms" );
  ]

(* The mean resident set while the loop ran.  Unlike the high-water
   mark, one burst of concurrent sessions does not set it; unlike the
   median, it follows the time-averaged number of sessions open, which
   a fixed offered load holds steady across seeds. *)
let rss_mb m = ("rss_mb", Stats.mean m.rss, "MB")

(* Percentiles too noisy on this hardware to gate on (see README):
   reported per layer, from the traced run's untraced half. *)
let tails m =
  let walls = List.map (fun s -> s.wall) m.sessions in
  let cmds = List.map (fun c -> c.dur) m.cmds in
  [
    ("loop.session_p50_ms", ms (Stats.percentile walls 50.0), "ms");
    ("loop.session_p95_ms", ms (Stats.percentile walls 95.0), "ms");
    ("loop.cmd_p50_ms", ms (Stats.percentile cmds 50.0), "ms");
    ("loop.cmd_p99_ms", ms (Stats.percentile cmds 99.0), "ms");
  ]

(* One row per program: sessions, median and p95 wall time. *)
let program_rows m =
  List.map
    (fun (p, walls) ->
      Json.Obj
        [
          ("program", Json.Str p);
          ("sessions", Json.Int (List.length walls));
          ("median_ms", Json.Float (ms (Stats.median walls)));
          ("p95_ms", Json.Float (ms (Stats.percentile walls 95.0)));
        ])
    (per_program m)
