open Dbp

(* Provenance & tracing (PR 3): the audit journal's verdicts must agree
   with the optimizer statistics they summarize, the patched-check
   telemetry must obey the conservation law the journal implies, and
   the phase tracer's Chrome export must be a well-formed, well-nested
   trace. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains s needle =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  n = 0 || go 0

let counter (rep : Telemetry.report) name =
  match List.assoc_opt name rep.Telemetry.r_counters with
  | Some v -> v
  | None -> 0

let summary_count (summary : (string * int) list) name =
  match List.assoc_opt name summary with
  | Some v -> v
  | None -> Alcotest.failf "verdict %S missing from summary" name

let workload name =
  match Workloads.Spec.find name with
  | Some w -> w
  | None -> Alcotest.failf "%s missing from the registry" name

let o_full =
  { Instrument.default_options with opt = Instrument.O_full }

(* --- verdict partition ---------------------------------------------------------- *)

(* The audit summary is a partition of the site table, and each verdict
   class must agree exactly with the statistic the optimizer that
   produced it reports: sym_matched sites = Symopt's matched stores
   (= the PreMonitor patch list), loop verdicts = Loopopt's
   invariant/range check counts (no alias filtering under the default
   options), and everything else is Kept. *)
let partition_checks name =
  let w = workload name in
  let session =
    Session.create ~options:o_full w.Workloads.Workload.source
  in
  let plan = session.Session.plan in
  let summary = Audit.summary session.Session.audit in
  let n_sites = List.length plan.Instrument.sites in
  check_bool "workload has write sites" true (n_sites > 0);
  check_int "summary partitions the site table" n_sites
    (List.fold_left (fun acc (_, c) -> acc + c) 0 summary);
  check_int "sym_matched = Symopt.matched_store_sites"
    plan.Instrument.sym_stats.Instrument.matched_store_sites
    (summary_count summary "sym_matched");
  check_int "sym_matched = PreMonitor patch list"
    (List.fold_left
       (fun acc (_, origins) -> acc + List.length origins)
       0 plan.Instrument.sites_by_pseudo)
    (summary_count summary "sym_matched");
  check_int "loop_invariant = Loopopt.invariant_checks"
    plan.Instrument.loop_stats.Loopopt.invariant_checks
    (summary_count summary "loop_invariant");
  check_int "loop_range = Loopopt.range_checks"
    plan.Instrument.loop_stats.Loopopt.range_checks
    (summary_count summary "loop_range");
  (* Per-site agreement, not just counts: the journal's verdict class
     must match the plan's status for every site, in slot order. *)
  let rep = Audit.report session.Session.audit in
  check_int "one journal entry per site" n_sites
    (List.length rep.Audit.a_sites);
  List.iter2
    (fun (s : Instrument.site) (a : Audit.site) ->
      check_int "slots align" s.Instrument.slot a.Audit.a_slot;
      check_int "origins align" s.Instrument.origin a.Audit.a_origin;
      let ok =
        match s.Instrument.status, a.Audit.a_verdict with
        | Instrument.Checked, Audit.Kept -> true
        | Instrument.Sym_eliminated p, Audit.Sym_matched { pseudo; _ } ->
          String.equal p pseudo
        | Instrument.Loop_eliminated id,
          ( Audit.Loop_invariant { loop_id; _ }
          | Audit.Loop_range { loop_id; _ } ) ->
          id = loop_id
        | _, _ -> false
      in
      check_bool
        (Printf.sprintf "site %d verdict matches plan status"
           s.Instrument.slot)
        true ok)
    plan.Instrument.sites rep.Audit.a_sites

let test_partition_matrix300 () = partition_checks "030.matrix300"
let test_partition_li () = partition_checks "022.li"

(* --- conservation ----------------------------------------------------------------- *)

(* Phase A: with nothing monitored, no eliminated check is ever patched
   back in, so every site's patched-execution cell stays zero even
   though the (eliminated) sites themselves execute.  That is exactly
   the §4.2/§4.3 claim the journal records: the elimination is real. *)
let test_conservation_unmonitored () =
  let w = workload "030.matrix300" in
  let session =
    Session.create ~options:o_full w.Workloads.Workload.source
  in
  Mrs.enable session.Session.mrs;
  let _code, _ = Session.run ~fuel:50_000_000 session in
  let tel = session.Session.telemetry in
  for slot = 0 to Telemetry.n_sites tel - 1 do
    check_int
      (Printf.sprintf "slot %d: no patched executions while unmonitored" slot)
      0
      (Telemetry.site_patched tel slot)
  done;
  let rep = Session.report session in
  check_bool "eliminated sites did execute" true
    (counter rep "sym_eliminated_execs" + counter rep "loop_eliminated_execs" > 0);
  check_int "patched_check_execs counter agrees" 0
    (counter rep "patched_check_execs");
  check_int "no patches were inserted" 0 (counter rep "patches_inserted")

(* Phase B: watch a sym-matched global before running.  PreMonitor
   patches its known writes in up front, so for exactly those origins
   every execution runs the patched check (patched = exec > 0); every
   other site stays at zero.  The journal's patch events account for
   each armed origin. *)
let test_conservation_premonitor () =
  let src =
    {|
int g;
int other;
int main() {
  int i;
  for (i = 0; i < 10; i = i + 1) { g = i; other = i + 1; }
  return g + other;
}
|}
  in
  let options =
    { Instrument.default_options with opt = Instrument.O_symbol }
  in
  let session = Session.create ~options src in
  let plan = session.Session.plan in
  let g_origins =
    match List.assoc_opt "g" plan.Instrument.sites_by_pseudo with
    | Some l -> l
    | None -> Alcotest.fail "g was not sym-matched"
  in
  let dbg = Debugger.create session in
  ignore (Debugger.watch dbg "g");
  let _code, _ = Session.run ~fuel:5_000_000 session in
  let tel = session.Session.telemetry in
  let slot_of origin =
    match Instrument.find_site session.Session.sites origin with
    | Some p -> p.Instrument.site.Instrument.slot
    | None -> Alcotest.failf "no slot for origin %d" origin
  in
  List.iter
    (fun origin ->
      let slot = slot_of origin in
      let execs = Telemetry.site_exec tel slot in
      check_bool "armed site executed" true (execs > 0);
      check_int
        (Printf.sprintf "origin %d: patched = exec while armed" origin)
        execs
        (Telemetry.site_patched tel slot))
    g_origins;
  List.iter
    (fun (s : Instrument.site) ->
      if not (List.mem s.Instrument.origin g_origins) then
        check_int
          (Printf.sprintf "origin %d: unarmed site never patched"
             s.Instrument.origin)
          0
          (Telemetry.site_patched tel s.Instrument.slot))
    plan.Instrument.sites;
  (* Each armed origin has a Patch_inserted journal event naming the
     watched pseudo. *)
  let rep = Audit.report session.Session.audit in
  List.iter
    (fun origin ->
      check_bool
        (Printf.sprintf "journal has insert event for origin %d" origin)
        true
        (List.exists
           (fun (p : Audit.patch_event) ->
             p.Audit.p_kind = Audit.Patch_inserted
             && p.Audit.p_origin = origin
             && String.equal p.Audit.p_pseudo "g")
           rep.Audit.a_patches))
    g_origins

(* Workload-scale bound: under a real watch, patched executions never
   exceed total executions, and every site with patched executions has
   a matching insert event in the journal. *)
let conservation_bound_checks name watch =
  let w = workload name in
  let session =
    Session.create ~options:o_full w.Workloads.Workload.source
  in
  let dbg = Debugger.create session in
  ignore (Debugger.watch dbg watch);
  let _code, _ = Session.run ~fuel:50_000_000 session in
  let tel = session.Session.telemetry in
  let rep = Audit.report session.Session.audit in
  List.iter
    (fun (s : Instrument.site) ->
      let slot = s.Instrument.slot in
      let patched = Telemetry.site_patched tel slot in
      check_bool
        (Printf.sprintf "slot %d: patched <= exec" slot)
        true
        (patched <= Telemetry.site_exec tel slot);
      if patched > 0 then
        check_bool
          (Printf.sprintf "slot %d: patched execs imply an insert event" slot)
          true
          (List.exists
             (fun (p : Audit.patch_event) ->
               p.Audit.p_kind = Audit.Patch_inserted
               && p.Audit.p_origin = s.Instrument.origin)
             rep.Audit.a_patches))
    session.Session.plan.Instrument.sites

let test_conservation_matrix300 () = conservation_bound_checks "030.matrix300" "c"

(* --- journal JSON round-trip ------------------------------------------------------ *)

let test_audit_json_round_trip () =
  let w = workload "030.matrix300" in
  let session =
    Session.create ~options:o_full w.Workloads.Workload.source
  in
  let dbg = Debugger.create session in
  ignore (Debugger.watch dbg "c");
  let _code, _ = Session.run ~fuel:50_000_000 session in
  let rep = Audit.report session.Session.audit in
  check_bool "journal has sites" true (rep.Audit.a_sites <> []);
  check_bool "journal has lattice bindings" true (rep.Audit.a_lattice <> []);
  (* The one JSON reader parses both renderings, and printing what it
     read gives back the same text. *)
  let compact = Audit.to_json_string rep in
  let pretty = Audit.to_json_string ~indent:2 rep in
  check_bool "compact JSON parses back" true
    (Export.json_to_string (Export.json_of_string compact) = compact);
  check_bool "pretty JSON parses back" true
    (Export.json_to_string ~indent:2 (Export.json_of_string pretty) = pretty);
  check_bool "schema recorded" true
    (rep.Audit.a_schema = Audit.schema_version)

(* --- explain ---------------------------------------------------------------------- *)

let test_explain () =
  let src =
    {|
int g;
int main() {
  int i;
  for (i = 0; i < 4; i = i + 1) { g = i; }
  return g;
}
|}
  in
  let options =
    { Instrument.default_options with opt = Instrument.O_symbol }
  in
  let session = Session.create ~options src in
  let dbg = Debugger.create session in
  ignore (Debugger.watch dbg "g");
  let _code, _ = Session.run ~fuel:1_000_000 session in
  let rep = Audit.report session.Session.audit in
  (match Audit.explain rep "g" with
  | Some text ->
    check_bool "explain names the verdict" true (contains text "sym_matched");
    check_bool "explain shows the patch history" true
      (contains text "re-inserted")
  | None -> Alcotest.fail "explain found nothing for g");
  check_bool "unknown target explains to nothing" true
    (Audit.explain rep "no_such_pseudo" = None)

(* --- chrome trace ----------------------------------------------------------------- *)

(* Spans are stack-bracketed at the recording layer, so well-nesting is
   structural; this checks the exported artifact: every event parses,
   carries non-negative integer ts/dur, and events on one tid are
   either disjoint or properly contained. *)
let test_chrome_trace_well_formed () =
  let w = workload "030.matrix300" in
  let trace = Trace.create () in
  let session =
    Session.create ~options:o_full ~trace w.Workloads.Workload.source
  in
  Mrs.enable session.Session.mrs;
  let _code, _ = Session.run ~fuel:50_000_000 session in
  let names = List.map (fun (s : Trace.span) -> s.Trace.sp_name) (Trace.spans trace) in
  List.iter
    (fun phase ->
      check_bool (phase ^ " span recorded") true (List.mem phase names))
    [ "compile"; "lift"; "symopt"; "loopopt"; "cfg-ssa"; "bounds"; "plan";
      "instrument"; "run" ];
  let s = Trace.to_chrome_string [ trace ] in
  match Export.json_of_string s with
  | Export.List events ->
    check_int "one event per span" (List.length names) (List.length events);
    let field name = function
      | Export.Obj fields -> (
        match List.assoc_opt name fields with
        | Some v -> v
        | None -> Alcotest.failf "event missing %S" name)
      | _ -> Alcotest.fail "event is not an object"
    in
    let int_field name ev =
      match field name ev with
      | Export.Int i -> i
      | _ -> Alcotest.failf "%S is not an int" name
    in
    let spans =
      List.map
        (fun ev ->
          let ts = int_field "ts" ev and dur = int_field "dur" ev in
          check_bool "ts >= 0" true (ts >= 0);
          check_bool "dur >= 0" true (dur >= 0);
          (match field "ph" ev with
          | Export.Str "X" -> ()
          | _ -> Alcotest.fail "not a complete event");
          (int_field "tid" ev, ts, ts + dur))
        events
    in
    (* Pairwise: same-tid intervals nest or are disjoint — no partial
       overlap survives the monotone microsecond quantization. *)
    List.iteri
      (fun i (tid_a, s_a, e_a) ->
        List.iteri
          (fun j (tid_b, s_b, e_b) ->
            if i < j && tid_a = tid_b then
              check_bool "no partial overlap" true
                (e_a <= s_b || e_b <= s_a
                || (s_a <= s_b && e_b <= e_a)
                || (s_b <= s_a && e_a <= e_b)))
          spans)
      spans
  | _ -> Alcotest.fail "chrome trace is not a JSON array"

(* The span-name multiset over a batch of sessions does not depend on
   how the sessions are distributed over tracers — the property the
   bench harness's -j1 / -j4 diff rule checks end-to-end. *)
let test_span_set_scheduling_independent () =
  let src = {|
int g;
int main() { g = 7; return g; }
|} in
  let run_batch tracers pick =
    List.iteri
      (fun i () ->
        let trace = List.nth tracers (pick i) in
        let session = Session.create ~options:o_full ~trace src in
        let _ = Session.run ~fuel:1_000_000 session in
        ())
      [ (); (); (); () ];
    Trace.span_set tracers
  in
  let serial = run_batch [ Trace.create () ] (fun _ -> 0) in
  let sharded =
    run_batch [ Trace.create (); Trace.create (); Trace.create () ] (fun i ->
        i mod 3)
  in
  check_bool "span multiset is scheduling-independent" true (serial = sharded)

(* Disabled registry ⇒ disabled journal and tracer.  Only a replayed
   leg disables the registry, and the session's default journal and
   tracer share its gate: a store hook firing while a query replays sees
   all three off, and the span it opens is dropped, while the same hook
   during the live run sees them on. *)
let test_disabled_gating () =
  let src = {|
int g;
int main() { int i; for (i = 0; i < 5; i = i + 1) { g = i; } return g; }
|} in
  let session = Session.create ~options:o_full ~checkpoint_every:20 src in
  let gates = ref [] in
  Machine.Cpu.set_store_hook session.Session.cpu (fun _ ~addr:_ ~width:_ ->
      gates :=
        (Telemetry.enabled session.Session.telemetry, Audit.enabled session.Session.audit)
        :: !gates;
      Trace.with_span session.Session.trace "store" ignore);
  let _ = Session.run ~fuel:1_000_000 session in
  let live = !gates and spans = List.length (Trace.spans session.Session.trace) in
  check_bool "live stores see the gates on" true
    (live <> [] && List.for_all (( = ) (true, true)) live);
  gates := [];
  let g = Option.get (Session.resolve_addr session "g") in
  ignore (Session.write_history session ~lo:g ~hi:(g + 4));
  check_bool "replayed stores see the gates off" true
    (!gates <> [] && List.for_all (( = ) (false, false)) !gates);
  check_int "no span recorded during replay" spans
    (List.length (Trace.spans session.Session.trace));
  check_bool "the gates reopen after the query" true
    (Telemetry.enabled session.Session.telemetry && Audit.enabled session.Session.audit)

let suites =
  [
    ( "audit.partition",
      [
        Alcotest.test_case "matrix300 verdicts partition the plan" `Quick
          test_partition_matrix300;
        Alcotest.test_case "li verdicts partition the plan" `Quick
          test_partition_li;
      ] );
    ( "audit.conservation",
      [
        Alcotest.test_case "unmonitored: zero patched executions" `Quick
          test_conservation_unmonitored;
        Alcotest.test_case "PreMonitor: patched = exec while armed" `Quick
          test_conservation_premonitor;
        Alcotest.test_case "matrix300: patched <= exec, events account"
          `Quick test_conservation_matrix300;
      ] );
    ( "audit.journal",
      [
        Alcotest.test_case "JSON round-trip" `Quick test_audit_json_round_trip;
        Alcotest.test_case "explain" `Quick test_explain;
        Alcotest.test_case "disabled registry gates audit and trace" `Quick
          test_disabled_gating;
      ] );
    ( "trace.chrome",
      [
        Alcotest.test_case "export well-formed and well-nested" `Quick
          test_chrome_trace_well_formed;
        Alcotest.test_case "span set scheduling-independent" `Quick
          test_span_set_scheduling_independent;
      ] );
  ]
