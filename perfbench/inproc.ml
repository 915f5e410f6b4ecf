(* The in-process workloads: one client calling the debugger's public
   API in a closed loop over the ten SPEC programs, in whole rounds of
   seeded order, until the run's time is up. *)

open Dbp
open Inputs

(* A session's answers, checked after the timed loop against a
   reference session that runs under the store oracle. *)
type answer = {
  a_session : Meter.session;
  a_prog : program;
  a_global : string;
  a_exit : int;
  a_hits : int;
}

type kind = Batch | Traced | Open_verify

type t = {
  kind : kind;
  rng : Random.State.t;
  programs : program array;
  watch : program -> string;  (** the global a session watches *)
  mutable answers : answer list;
  obligations : (string, int) Hashtbl.t;  (** per program, first seen *)
}

let checkpoint_every = 10_000
let sample_every = 50_000
let history_bytes = 8

let watch_session ?trace ?(traced = false) (p : program) =
  if traced then
    Session.create ~options:replay_options ?trace ~checkpoint_every ~profile:true
      ~profile_clock:Meter.now ~sample_every ~sample_clock:Meter.now
      ~heatmap:true p.source
  else Session.create ~options ?trace p.source

(* The debug-traced checks: the replay engine's answers must agree with
   the [events] the live watchpoint saw during the run, and travel must
   land where asked. *)
let check_replay sess events g ~lw ~hist ~insn =
  let addr = Option.get (Session.resolve_addr sess g) in
  let size =
    match Sparc.Symtab.lookup sess.Session.symtab g with
    | Some e -> Sparc.Symtab.size_bytes e
    | None -> 4
  in
  let in_range lo hi (e : Debugger.event) = e.addr >= lo && e.addr < hi in
  let last_live =
    List.fold_left
      (fun acc e -> if in_range addr (addr + 4) e then Some e.Debugger.value else acc)
      None events
  in
  let hi = addr + min history_bytes size in
  let fail what = failwith (Printf.sprintf "%s of %s disagrees with the live watch" what g) in
  if last_live <> Option.map (fun w -> w.Session.wr_hit.Replay.h_new) lw then
    fail "last-write";
  if
    List.length (List.filter (in_range addr hi) events)
    <> List.length (List.filter (fun w -> w.Session.wr_hit.Replay.h_addr < hi) hist)
  then fail "write history";
  if Machine.Cpu.instr_count sess.Session.cpu <> insn then
    failwith (Printf.sprintf "travel to %d landed elsewhere" insn)

let debug_session t m ?trace (p : program) =
  let g = t.watch p in
  let frac = Random.State.float t.rng 1.0 in
  let traced = t.kind = Traced in
  let result = ref None in
  let s =
    Meter.session m ?trace p.name (fun () ->
        let cmd verb f = Meter.cmd m ?trace verb f in
        let sess = cmd "Session.create" (fun () -> watch_session ?trace ~traced p) in
        let dbg = Debugger.create sess in
        ignore (cmd "Debugger.watch" (fun () -> Debugger.watch dbg g));
        let code, _ = cmd "Session.run" (fun () -> Session.run ~fuel sess) in
        (* Replay queries re-execute stores the watch sees again. *)
        let events = Debugger.events dbg in
        result := Some (code, List.length events);
        if traced then begin
          let total = Machine.Cpu.instr_count sess.Session.cpu in
          cmd "render.profile" (fun () ->
              let rep = Session.profile_report sess in
              ignore (Profile.to_json_string rep);
              ignore (Profile.folded_to_string rep));
          let addr = Option.get (Session.resolve_addr sess g) in
          let lw = cmd "Session.last_write" (fun () -> Session.last_write sess ~addr) in
          let hist =
            cmd "Session.write_history" (fun () ->
                Session.write_history sess ~lo:addr ~hi:(addr + history_bytes))
          in
          let insn = int_of_float (frac *. float_of_int total) in
          ignore (cmd "Session.time_travel" (fun () -> Session.time_travel sess ~insn));
          cmd "render.heatmap" (fun () ->
              Session.heatmap_sync_regions sess;
              Option.iter
                (fun hm -> ignore (Heatmap.to_json_string hm); ignore (Heatmap.to_ppm hm))
                sess.Session.heatmap);
          cmd "render.timeseries" (fun () ->
              ignore (Timeseries.to_json_string (Session.report sess)));
          check_replay sess events g ~lw ~hist ~insn
        end)
  in
  match !result with
  | Some (code, hits) ->
    t.answers <-
      { a_session = s; a_prog = p; a_global = g; a_exit = code; a_hits = hits }
      :: t.answers
  | None -> ()

let verify_session t m ?trace (p : program) =
  ignore
  @@ Meter.session m ?trace p.name (fun () ->
        let sess =
          Meter.cmd m ?trace "Session.create" (fun () ->
              Session.create ~options ?trace p.source)
        in
        let rep =
          Meter.cmd m ?trace "Verify.run" (fun () ->
              Verify.run ~audit:(Audit.report sess.Session.audit) sess.Session.plan)
        in
        if not (Verify.ok rep) then failwith (Verify.summary_line rep);
        let n = List.length rep.Verify.v_obligations in
        match Hashtbl.find_opt t.obligations p.name with
        | Some n0 when n0 <> n ->
          failwith (Printf.sprintf "%d obligations, earlier session had %d" n n0)
        | Some _ -> ()
        | None -> Hashtbl.replace t.obligations p.name n)

let loop t ~seconds ?trace () =
  let m = Meter.create () in
  m.Meter.backlog_max <- 1;
  let session =
    match t.kind with
    | Batch | Traced -> debug_session t m ?trace
    | Open_verify -> verify_session t m ?trace
  in
  Meter.start m;
  let first = ref true in
  while !first || Meter.now () -. m.Meter.t_start < seconds do
    first := false;
    let r0 = Meter.now () in
    let probing = ref 0.0 in
    Array.iter
      (fun p ->
        session p;
        Meter.sample_rss m "self";
        probing := !probing +. Meter.host_tick ())
      (shuffle t.rng t.programs);
    let busy = Meter.now () -. r0 -. !probing in
    m.Meter.rounds <- (Array.length t.programs, busy /. Meter.slowdown_now ()) :: m.Meter.rounds
  done;
  Meter.stop m;
  m

(* Reference: the same program and watch under the store oracle, which
   records every program store into the watched region independently of
   the checks.  Memoized per (program, global). *)
let references = Hashtbl.create 64

let reference (p : program) g =
  match Hashtbl.find_opt references (p.name, g) with
  | Some r -> r
  | None ->
    let sess = Session.create ~options p.source in
    Session.install_oracle sess;
    let dbg = Debugger.create sess in
    ignore (Debugger.watch dbg g);
    let code, _ = Session.run ~fuel sess in
    let r = (code, List.length (Debugger.events dbg), Session.missed_hits sess) in
    Hashtbl.replace references (p.name, g) r;
    r

let verify t m =
  List.iter
    (fun a ->
      let code, hits, missed = reference a.a_prog a.a_global in
      let s = a.a_session in
      Meter.check m s (a.a_exit = a.a_prog.expected_exit)
        (lazy (Printf.sprintf "exit %d, expected %d" a.a_exit a.a_prog.expected_exit));
      Meter.check m s (code = a.a_prog.expected_exit && missed = 0)
        (lazy (Printf.sprintf "oracle: exit %d, %d missed hits" code missed));
      Meter.check m s (a.a_hits = hits)
        (lazy (Printf.sprintf "watch %s: %d hits, oracle run saw %d" a.a_global a.a_hits hits)))
    t.answers;
  t.answers <- []

(* Set-up: generate the seeded inputs and open every program once (the
   untimed warm-up of the compile/instrument/load pipeline). *)
let setup kind ~rng =
  let programs = spec () in
  Array.iter (fun p -> ignore (Session.create ~options p.source)) programs;
  { kind; rng; programs; watch = rotation rng; answers = []; obligations = Hashtbl.create 16 }
