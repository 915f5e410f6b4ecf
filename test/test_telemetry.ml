open Dbp

(* Tests for the telemetry subsystem: the ring buffer, the report
   export, counter parity between the registry and independent
   recounts, and the repo-hygiene guard. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let counter rep name =
  match List.assoc_opt name rep.Telemetry.r_counters with
  | Some v -> v
  | None -> Alcotest.failf "report has no counter %S" name

(* --- ring buffer ------------------------------------------------------------ *)

let test_ring_basic () =
  let r = Ring.create ~capacity:4 in
  check_int "empty length" 0 (Ring.length r);
  List.iter (Ring.push r) [ 1; 2; 3 ];
  check_int "length" 3 (Ring.length r);
  check_int "dropped" 0 (Ring.dropped r);
  Alcotest.(check (list int)) "oldest first" [ 1; 2; 3 ] (Ring.to_list r)

let test_ring_wraparound () =
  let r = Ring.create ~capacity:3 in
  for i = 1 to 10 do
    Ring.push r i
  done;
  check_int "length capped" 3 (Ring.length r);
  check_int "dropped = pushed - length" 7 (Ring.dropped r);
  Alcotest.(check (list int)) "last three, oldest first" [ 8; 9; 10 ]
    (Ring.to_list r)

let test_ring_zero_capacity () =
  let r = Ring.create ~capacity:0 in
  for i = 1 to 5 do
    Ring.push r i
  done;
  check_int "holds nothing" 0 (Ring.length r);
  check_int "all dropped" 5 (Ring.dropped r);
  check_bool "negative capacity rejected" true
    (match Ring.create ~capacity:(-1) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- JSON round-trip --------------------------------------------------------- *)

(* A registry exercised enough that every report section is non-trivial:
   tags, scalar counters, typed counters, sites, read sites, events and
   a non-zero dropped count. *)
let busy_report () =
  let t = Telemetry.create ~ring_capacity:2 () in
  Telemetry.set_tag t "workload" "unit \"test\"\n";
  Telemetry.set_tag t "strategy" "bitmap";
  Telemetry.incr t Telemetry.User_hits;
  Telemetry.add t Telemetry.Regions_created 3;
  Telemetry.incr_typed t Telemetry.Cache_misses_by_type 1;
  Telemetry.alloc_sites t
    [| (0, Telemetry.site_kind_checked); (1, Telemetry.site_kind_sym) |];
  Telemetry.alloc_read_sites t [| 2 |];
  Telemetry.bump_site t 0;
  Telemetry.bump_site t 0;
  Telemetry.bump_site_hit t 0;
  Telemetry.bump_read_site t 0;
  for i = 0 to 2 do
    Telemetry.record_event t
      {
        Telemetry.ev_pc = 0x10000 + i;
        ev_addr = 0x400000 + (4 * i);
        ev_region_lo = 0x400000;
        ev_region_hi = 0x400010;
        ev_region_kind = "user";
        ev_access = (if i = 1 then Telemetry.Read else Telemetry.Write);
        ev_write_type = "BSS";
        ev_insn = 100 * i;
      }
  done;
  Telemetry.report t

let test_json_round_trip () =
  let rep = busy_report () in
  let json = Export.to_json rep in
  check_bool "report JSON parses back to what was written" true
    (Export.json_of_string (Export.to_json_string rep) = json);
  (* Pretty-printing parses back to the same value too. *)
  check_bool "pretty JSON parses back" true
    (Export.json_of_string (Export.to_json_string ~indent:2 rep) = json);
  check_bool "schema recorded" true
    (rep.Telemetry.r_schema = Telemetry.schema_version)

let test_merge_deterministic () =
  let mk hits regions =
    let t = Telemetry.create () in
    Telemetry.set_tag t "strategy" "bitmap";
    Telemetry.add t Telemetry.User_hits hits;
    Telemetry.add t Telemetry.Regions_created regions;
    Telemetry.report t
  in
  let a = mk 2 1 and b = mk 5 0 and c = mk 1 4 in
  let m1 = Telemetry.merge [ a; b; c ] and m2 = Telemetry.merge [ c; a; b ] in
  check_bool "merge is order-independent" true (m1 = m2);
  check_int "counters sum" 8 (counter m1 "user_hits");
  check_int "regions sum" 5 (counter m1 "regions_created");
  check_bool "common tags survive" true
    (List.assoc_opt "strategy" m1.Telemetry.r_tags = Some "bitmap")

(* Every document the tools write parses with the one JSON reader and
   carries its schema tag.  Two sessions on CI's matrix kernel: one
   with every observer on, [a] watched and a last-write query on [c]
   (what dbreak's --metrics/--audit/--profile/--timeseries/--heatmap/
   --chrome-trace exports and dbreakd's report reply render), and one
   at O_full with alias checks, verified (dbreak --verify FILE). *)
let test_every_export_parses () =
  let parsed what s =
    match Export.json_of_string s with
    | v -> v
    | exception Export.Parse_error e -> Alcotest.failf "%s: %s" what e
  in
  let schema_of what s =
    match parsed what s with
    | Export.Obj fields -> (
      match List.assoc_opt "schema" fields with
      | Some (Export.Str v) -> v
      | _ -> Alcotest.failf "%s: no schema tag" what)
    | _ -> Alcotest.failf "%s: not a JSON object" what
  in
  let tracer = Trace.create () in
  let session =
    Session.create ~trace:tracer ~checkpoint_every:10_000 ~profile:true
      ~sample_every:997 ~heatmap:true Test_dbp.ci_matrix_src
  in
  ignore (Debugger.watch (Debugger.create session) "a");
  let code, _ = Session.run session in
  check_int "exit" 158 code;
  check_bool "c has a last write" true
    (Session.last_write session
       ~addr:(Option.get (Session.resolve_addr session "c"))
    <> None);
  let rep = Session.report session in
  Session.heatmap_sync_regions session;
  let full =
    Session.create
      ~options:
        { Instrument.default_options with opt = Instrument.O_full;
          check_aliases = true }
      Test_dbp.ci_matrix_src
  in
  let verified =
    Verify.run ~audit:(Audit.report full.Session.audit) full.Session.plan
  in
  List.iter
    (fun (what, schema, doc) ->
      Alcotest.(check string) (what ^ " schema") schema (schema_of what doc))
    [
      ("telemetry", "dbp-telemetry/6", Export.to_json_string rep);
      ( "audit",
        "dbp-audit/2",
        Audit.to_json_string ~indent:1 (Audit.report session.Session.audit) );
      ("verify", "dbp-verify/1", Verify.to_json_string ~indent:1 verified);
      ("timeseries", "dbp-timeseries/1", Timeseries.to_json_string rep);
      ( "profile",
        "dbp-profile/1",
        Profile.to_json_string ~indent:1 (Session.profile_report session) );
      ( "heatmap",
        "dbp-heatmap/1",
        Heatmap.to_json_string (Option.get session.Session.heatmap) );
    ];
  (* The Chrome trace is an array of events: complete spans, then
     counter samples. *)
  let counters =
    Profile.chrome_counters (Option.get session.Session.profiler)
    @ Timeseries.chrome_counters (Option.get session.Session.timeseries)
  in
  match parsed "chrome trace" (Trace.to_chrome_string ~counters [ tracer ]) with
  | Export.List events ->
    let phase ph =
      List.length
        (List.filter
           (function
             | Export.Obj f -> List.assoc_opt "ph" f = Some (Export.Str ph)
             | _ -> false)
           events)
    in
    check_bool "chrome trace has spans" true (phase "X" > 0);
    check_int "chrome trace has the counter samples" (List.length counters)
      (phase "C");
    check_int "every chrome event is a span or a counter" (List.length events)
      (phase "X" + phase "C")
  | _ -> Alcotest.fail "chrome trace: not a JSON array"

(* --- counter parity: registry vs independent recounts ------------------- *)

let sum_site_hits rep =
  List.fold_left
    (fun acc (s : Telemetry.site_report) -> acc + s.Telemetry.sr_hits)
    0 rep.Telemetry.r_sites
  + List.fold_left
      (fun acc (s : Telemetry.site_report) -> acc + s.Telemetry.sr_hits)
      0 rep.Telemetry.r_read_sites

(* Counts kept outside the registry, for a session about to run: a
   store hook counts executed program stores at write sites (the inline
   store, or the first pc of its patch stub), the oracle counts program
   accesses that land in a user region, and the debugger keeps one
   event per notification. *)
type recount = { session : Session.t; dbg : Debugger.t; site_stores : int ref }

let recount session =
  let site_stores = ref 0 in
  Machine.Cpu.set_store_hook session.Session.cpu (fun cpu ~addr:_ ~width:_ ->
      if Option.is_some
           (Instrument.store_type session.Session.sites (Machine.Cpu.pc cpu))
      then incr site_stores);
  Session.install_oracle session;
  { session; dbg = Debugger.create session; site_stores }

let user_events rc = List.length (Debugger.events rc.dbg)

let read_events rc =
  List.length
    (List.filter (fun e -> e.Debugger.access = Mrs.Read) (Debugger.events rc.dbg))

let parity_checks rc =
  let session = rc.session in
  let rep = Session.report session in
  check_int "check_execs = store-hook recount" !(rc.site_stores)
    (counter rep "check_execs");
  check_int "user_hits = debugger events" (user_events rc)
    (counter rep "user_hits");
  check_int "user_hits = oracle's covered accesses"
    session.Session.expected_hits (counter rep "user_hits");
  check_int "read_hits = debugger read events" (read_events rc)
    (counter rep "read_hits");
  check_int "loop_entries = per-loop entry counts"
    (List.fold_left
       (fun acc (p : Loopopt.loop_plan) ->
         acc + Telemetry.loop_entries session.Session.telemetry p.loop_id)
       0 session.Session.plan.Instrument.loop_plans)
    (counter rep "loop_entries");
  check_int "patches_inserted = journalled insertions"
    (List.length
       (List.filter
          (fun (p : Audit.patch_event) -> p.Audit.p_kind = Audit.Patch_inserted)
          (Audit.report session.Session.audit).Audit.a_patches))
    (counter rep "patches_inserted");
  (* Conservation: every hit lands on exactly one site, or is counted
     unattributed — never both, never twice. *)
  check_int "hit attribution conserves totals"
    (counter rep "user_hits" + counter rep "internal_hits")
    (sum_site_hits rep + counter rep "unattributed_hits");
  rep

(* matrix300, with its output matrix watched: the registry's check and
   hit totals must match the recounts exactly. *)
let test_matrix300_parity () =
  let w =
    match Workloads.Spec.find "030.matrix300" with
    | Some w -> w
    | None -> Alcotest.fail "030.matrix300 missing"
  in
  let rc = recount (Session.create w.Workloads.Workload.source) in
  ignore (Debugger.watch rc.dbg "c");
  let code, _ = Session.run ~fuel:50_000_000 rc.session in
  (match w.Workloads.Workload.expected_exit with
  | Some e -> check_int "exit code" e code
  | None -> ());
  let rep = parity_checks rc in
  check_bool "watch produced hits" true (counter rep "user_hits" > 0);
  check_int "no unattributed hits" 0 (counter rep "unattributed_hits")

(* Optimized + read-monitored run: eliminated sites, patches, loop
   machinery and read hits all flowing through the same attribution. *)
let test_optimized_readwrite_parity () =
  let src =
    {|
int g[32];
int total;
int main() {
  int i;
  int s;
  s = 0;
  for (i = 0; i < 32; i = i + 1) { g[i] = i * 3; }
  for (i = 0; i < 32; i = i + 1) { s = s + g[i]; }
  total = s;
  return total & 255;
}
|}
  in
  let options =
    { Instrument.default_options with opt = Instrument.O_full;
      monitor_reads = true }
  in
  let rc = recount (Session.create ~options src) in
  ignore (Debugger.watch rc.dbg "g");
  let _code, _ = Session.run ~fuel:5_000_000 rc.session in
  let rep = parity_checks rc in
  let user = counter rep "user_hits" and reads = counter rep "read_hits" in
  check_bool "saw read hits" true (reads > 0);
  check_bool "patches inserted" true (counter rep "patches_inserted" > 0);
  (* read_hits is a subset of user_hits, counted exactly once: write
     hits (attributed to write sites) and read hits partition the user
     total. *)
  check_bool "read subset" true (reads <= user);
  let write_site_hits =
    List.fold_left
      (fun acc (s : Telemetry.site_report) -> acc + s.Telemetry.sr_hits)
      0 rep.Telemetry.r_sites
  in
  let read_site_hits =
    List.fold_left
      (fun acc (s : Telemetry.site_report) -> acc + s.Telemetry.sr_hits)
      0 rep.Telemetry.r_read_sites
  in
  check_int "read hits attributed to read sites" reads read_site_hits;
  check_int "write + read partition user hits (none double-counted)"
    (user + counter rep "internal_hits")
    (write_site_hits + read_site_hits + counter rep "unattributed_hits")

(* --- fuzz: replay counts nothing ------------------------------------------------ *)

(* The registry counts the live run once.  A session recorded through
   the checkpoint journal is asked every kind of retroactive question;
   its report afterwards must still agree with independent recounts
   taken when the program exited — the recount hook, the debugger's
   events and the oracle — and the hit ring must hold only live
   events. *)
let prop_registry_parity =
  QCheck.Test.make
    ~name:"random programs: telemetry counts the live run once, = recounts"
    ~count:10 Test_fuzz.arb_program (fun src ->
      let telemetry = Telemetry.create ~ring_capacity:8 () in
      let options =
        { Instrument.default_options with opt = Instrument.O_full;
          monitor_reads = true }
      in
      let rc =
        recount (Session.create ~options ~telemetry ~checkpoint_every:300 src)
      in
      ignore (Debugger.watch rc.dbg "g0");
      ignore (Debugger.watch rc.dbg "ga");
      let _ = Session.run ~fuel:20_000_000 rc.session in
      let site_stores = !(rc.site_stores) in
      let events = Debugger.events rc.dbg in
      let ring = (Session.report rc.session).Telemetry.r_events in
      let session = rc.session in
      let g0 = Option.get (Session.resolve_addr session "g0") in
      let ga = Option.get (Session.resolve_addr session "ga") in
      ignore (Session.last_write session ~addr:g0);
      ignore (Session.write_history session ~lo:ga ~hi:(ga + 32));
      ignore
        (Session.time_travel session
           ~insn:(Machine.Cpu.instr_count session.Session.cpu / 2));
      let rep = Session.report session in
      counter rep "check_execs" = site_stores
      && counter rep "user_hits" = List.length events
      && counter rep "user_hits" = session.Session.expected_hits
      && counter rep "read_hits"
         = List.length (List.filter (fun e -> e.Debugger.access = Mrs.Read) events)
      && sum_site_hits rep + counter rep "unattributed_hits"
         = counter rep "user_hits" + counter rep "internal_hits"
      && Debugger.events rc.dbg = events
      && rep.Telemetry.r_events = ring)

(* A session's check sites carry probes and so execute through the
   generic interpreter; everything else runs the pre-decoded fast path.
   Pinning a no-op probe on *every* text pc forces the whole run down
   the generic path — and the telemetry counts (check/hit/site arrays)
   must come out identical, the telemetry face of the interpreter's
   differential property.  Dispatch counters are excluded: the extra
   probes dispatch by design. *)
let comparable rep =
  let drop =
    [ "probe_dispatches"; "store_hook_dispatches"; "load_hook_dispatches" ]
  in
  ( List.filter (fun (n, _) -> not (List.mem n drop)) rep.Telemetry.r_counters,
    rep.Telemetry.r_typed,
    rep.Telemetry.r_sites,
    rep.Telemetry.r_read_sites )

let prop_fast_generic_count_parity =
  QCheck.Test.make
    ~name:"random programs: fast vs generic paths report identical counts"
    ~count:10 Test_fuzz.arb_program (fun src ->
      let run all_pcs_probed =
        let options =
          { Instrument.default_options with opt = Instrument.O_symbol;
            monitor_reads = true }
        in
        let session = Session.create ~options src in
        if all_pcs_probed then begin
          let image = session.Session.image in
          for i = 0 to Array.length image.Sparc.Assembler.text - 1 do
            Machine.Cpu.add_probe session.Session.cpu
              (image.Sparc.Assembler.text_base + (4 * i))
              (fun _ -> ())
          done
        end;
        let dbg = Debugger.create session in
        ignore (Debugger.watch dbg "g0");
        ignore (Debugger.watch dbg "ga");
        let code, out = Session.run ~fuel:20_000_000 session in
        (code, out, Session.stats session, Session.report session)
      in
      let code_f, out_f, stats_f, rep_f = run false in
      let code_g, out_g, stats_g, rep_g = run true in
      code_f = code_g && out_f = out_g && stats_f = stats_g
      && comparable rep_f = comparable rep_g)

(* --- repo hygiene: no build artifacts under version control ------------------- *)

(* [git ls-files] from the repository root must not list anything under
   _build/ (or .merlin-style build droppings).  Skipped when git is not
   available — e.g. a release tarball. *)
let test_no_build_artifacts_tracked () =
  let tmp = Filename.temp_file "dbp_lsfiles" ".txt" in
  let cmd =
    Printf.sprintf "git ls-files --full-name -- ':/' > %s 2>/dev/null"
      (Filename.quote tmp)
  in
  let status = Sys.command cmd in
  if status <> 0 then ()  (* not a git checkout: nothing to check *)
  else begin
    let ic = open_in tmp in
    let offenders = ref [] in
    (try
       while true do
         let line = input_line ic in
         let is_build =
           String.length line >= 7 && String.sub line 0 7 = "_build/"
         in
         let has_build =
           let needle = "/_build/" in
           let n = String.length needle and l = String.length line in
           let rec scan i =
             i + n <= l && (String.sub line i n = needle || scan (i + 1))
           in
           scan 0
         in
         if is_build || has_build then offenders := line :: !offenders
       done
     with End_of_file -> ());
    close_in ic;
    Sys.remove tmp;
    match !offenders with
    | [] -> ()
    | l ->
      Alcotest.failf "build artifacts under version control: %s"
        (String.concat ", " l)
  end

let suites =
  [
    ( "telemetry.ring",
      [
        Alcotest.test_case "basic" `Quick test_ring_basic;
        Alcotest.test_case "wraparound" `Quick test_ring_wraparound;
        Alcotest.test_case "zero capacity" `Quick test_ring_zero_capacity;
      ] );
    ( "telemetry.export",
      [
        Alcotest.test_case "JSON round-trip" `Quick test_json_round_trip;
        Alcotest.test_case "merge deterministic" `Quick
          test_merge_deterministic;
        Alcotest.test_case "every export parses, schema tagged" `Quick
          test_every_export_parses;
      ] );
    ( "telemetry.parity",
      [
        Alcotest.test_case "matrix300 counts = MRS totals" `Quick
          test_matrix300_parity;
        Alcotest.test_case "optimized read/write attribution" `Quick
          test_optimized_readwrite_parity;
        QCheck_alcotest.to_alcotest prop_registry_parity;
        QCheck_alcotest.to_alcotest prop_fast_generic_count_parity;
      ] );
    ( "repo.hygiene",
      [
        Alcotest.test_case "no _build files tracked" `Quick
          test_no_build_artifacts_tracked;
      ] );
  ]
