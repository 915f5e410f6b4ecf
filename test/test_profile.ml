open Dbp

(* Tests for the hot-path profiler: exact conservation of the packed
   block/edge counters against the machine's architectural stats,
   call-stack attribution, determinism of the exports, the
   zero-added-work contract when profiling is off, the per-block MRS
   check-density join, the Chrome-trace edge cases, and the
   dbp-telemetry/4 schema bump. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let workload name =
  match Workloads.Spec.find name with
  | Some w -> w
  | None -> Alcotest.failf "unknown workload %s" name

let options =
  { Instrument.default_options with strategy = Strategy.Bitmap_inline_registers }

let run_profiled ?(options = options) src =
  let session = Session.create ~options ~profile:true src in
  Mrs.enable session.Session.mrs;
  let code, _ = Session.run ~fuel:20_000_000 session in
  (session, code)

let fn rep name =
  match
    List.find_opt (fun f -> f.Profile.fr_name = name) rep.Profile.p_functions
  with
  | Some f -> f
  | None -> Alcotest.failf "profile has no function %S" name

(* --- conservation against the machine ------------------------------------------- *)

(* Every architectural event the profiler double-books must reconcile
   exactly: block instruction counts, folded stack self counts and the
   per-slot exec counters all sum to the machine's retired-instruction
   count, and the per-slot taken/exec counters over branch slots sum to
   the machine's branch count.  Run on the matrix kernel under a real
   strategy so MRS patching (and hence the packed-kind repatch path) is
   exercised too. *)
let test_conservation_matrix300 () =
  let w = workload "030.matrix300" in
  let options =
    { options with fortran_idiom = Workloads.Workload.fortran_idiom w }
  in
  let session, code = run_profiled ~options w.Workloads.Workload.source in
  (match w.Workloads.Workload.expected_exit with
  | Some e -> check_int "exit" e code
  | None -> ());
  let cpu = session.Session.cpu in
  let stats = Machine.Cpu.stats cpu in
  let p = Option.get session.Session.profiler in
  check_int "profiled_instrs = instr_count" (Machine.Cpu.instr_count cpu)
    (Profile.profiled_instrs p);
  let rep = Session.profile_report session in
  check_int "report total = instr_count" (Machine.Cpu.instr_count cpu)
    rep.Profile.p_total_instrs;
  check_int "sum of block instrs = total"
    rep.Profile.p_total_instrs
    (List.fold_left (fun acc b -> acc + b.Profile.bb_instrs) 0
       rep.Profile.p_blocks);
  check_int "sum of folded stacks = total" rep.Profile.p_total_instrs
    (List.fold_left (fun acc (_, n) -> acc + n) 0 rep.Profile.p_folded);
  (* Per-slot: branch-kind exec counts sum to the machine's branch
     stat; taken never exceeds exec. *)
  let info = Machine.Cpu.profile_static cpu in
  let taken = Profile.taken_array p in
  let branch_execs = ref 0 in
  Array.iteri
    (fun i (k, _) ->
      let e = Profile.exec_count p i in
      if k = Profile.kind_branch then begin
        branch_execs := !branch_execs + e;
        check_bool "taken <= exec" true (taken.(i) <= e)
      end)
    info;
  check_int "sum of branch-slot execs = stats.branches" stats.Machine.Cpu.branches
    !branch_execs;
  (* Every taken edge in the report comes from the taken counters, so
     the two sums reconcile exactly. *)
  check_int "sum of taken edges = sum of taken counters"
    (Array.fold_left ( + ) 0 taken)
    (List.fold_left
       (fun acc e ->
         if e.Profile.ed_kind = "taken" then acc + e.Profile.ed_count else acc)
       0 rep.Profile.p_edges);
  (* The kernel's innermost loop dominates: hottest function is matmul
     and the hottest back-edge is its k-loop, taken n^3 times. *)
  check_string "hottest function" "matmul"
    (List.hd rep.Profile.p_functions).Profile.fr_name;
  match rep.Profile.p_backedges with
  | [] -> Alcotest.fail "no back-edges on a triple loop nest"
  | be :: _ ->
    check_int "k-loop back-edge taken n^3 times" (22 * 22 * 22)
      be.Profile.be_count;
    check_bool "loop body is non-empty" true (be.Profile.be_blocks <> [])

(* --- zero added work when disabled ----------------------------------------------- *)

(* A profiled and an unprofiled run of the same program must agree on
   every architectural stat — profiling adds exactly zero simulated
   work (and never touches [stats], which the differential fuzz
   harness separately relies on). *)
let test_stats_parity () =
  let src =
    "int g; int main() { int i; for (i = 0; i < 50; i = i + 1) { g = g + i; \
     } return g % 256; }"
  in
  let with_profile profile =
    let session = Session.create ~options ~profile src in
    Mrs.enable session.Session.mrs;
    let code, _ = Session.run ~fuel:20_000_000 session in
    (code, Machine.Cpu.stats session.Session.cpu)
  in
  let code_on, on = with_profile true in
  let code_off, off = with_profile false in
  check_int "exit" code_off code_on;
  check_bool "stats identical with and without profiler" true (on = off)

(* --- call-stack attribution ------------------------------------------------------- *)

let test_call_attribution () =
  let src =
    "int f(int x) { return x + 1; } int main() { int s; int i; s = 0; for (i \
     = 0; i < 10; i = i + 1) { s = f(s); } return s; }"
  in
  let session, code = run_profiled src in
  check_int "exit" 10 code;
  let rep = Session.profile_report session in
  let f = fn rep "f" and main = fn rep "main" in
  check_int "f called 10 times" 10 f.Profile.fr_calls;
  check_int "main called once" 1 main.Profile.fr_calls;
  check_bool "f does work" true (f.Profile.fr_excl_instrs > 0);
  check_bool "leaf: inclusive = exclusive" true
    (f.Profile.fr_incl_instrs = f.Profile.fr_excl_instrs);
  check_bool "main inclusive > exclusive" true
    (main.Profile.fr_incl_instrs > main.Profile.fr_excl_instrs);
  check_bool "main inclusive covers f" true
    (main.Profile.fr_incl_instrs
    >= main.Profile.fr_excl_instrs + f.Profile.fr_incl_instrs);
  (* The folded export names the path through main. *)
  check_bool "folded has _start;main;f" true
    (List.mem_assoc "_start;main;f" rep.Profile.p_folded)

(* Recursion: the inclusive interval of a recursive function is charged
   once per outermost activation, so it can never exceed the total. *)
let test_recursion_inclusive () =
  let src =
    "int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - \
     2); } int main() { return fib(12); }"
  in
  let session, code = run_profiled src in
  check_int "exit" 144 code;
  let rep = Session.profile_report session in
  let fib = fn rep "fib" in
  check_bool "many activations" true (fib.Profile.fr_calls > 100);
  check_bool "inclusive >= exclusive" true
    (fib.Profile.fr_incl_instrs >= fib.Profile.fr_excl_instrs);
  check_bool "inclusive <= total" true
    (fib.Profile.fr_incl_instrs <= rep.Profile.p_total_instrs);
  (* Self-recursive paths fold into one tree path per depth, and their
     self counts still sum to fib's exclusive total. *)
  let fib_self =
    List.fold_left
      (fun acc (path, n) ->
        if String.length path >= 4 && String.sub path (String.length path - 4) 4 = ";fib"
        then acc + n
        else acc)
      0 rep.Profile.p_folded
  in
  check_int "folded fib self = exclusive" fib.Profile.fr_excl_instrs fib_self

(* Calls and returns run about once every ten instructions on
   call-heavy code, so once a call path has been entered, entering and
   leaving it again allocates nothing, even when one caller alternates
   between callees. *)
let test_warm_transfers_allocate_nothing () =
  let session, _ =
    run_profiled
      "int f(int n) { return n + 1; } int g(int n) { return n * 2; } \
       int main() { return f(g(3)); }"
  in
  let p = Option.get session.Session.profiler in
  let entry name =
    Option.get (Sparc.Assembler.addr_of_label session.Session.image name)
  in
  let f = entry "f" and g = entry "g" in
  let instrs = ref (Machine.Cpu.instr_count session.Session.cpu) in
  let transfer kind pc =
    incr instrs;
    Profile.transfer p ~slot:0 ~kind ~pc ~instrs:!instrs ~cycles:!instrs
  in
  let round () =
    transfer Profile.kind_call f;
    transfer Profile.kind_ret f;
    transfer Profile.kind_call g;
    transfer Profile.kind_ret g
  in
  round ();
  let before = Gc.minor_words () in
  for _ = 1 to 5_000 do round () done;
  let words = Gc.minor_words () -. before in
  check_bool
    (Printf.sprintf "20 000 warm transfers allocated %.0f words" words)
    true (words < 64.);
  (* Every call above came from slot 0, alternating its callee, as an
     indirect call may: each still enters its own function. *)
  let calls name =
    let rep = Profile.report p ~instrs:!instrs ~cycles:!instrs () in
    (List.find (fun f -> f.Profile.fr_name = name) rep.Profile.p_functions)
      .Profile.fr_calls
  in
  check_int "calls of f" 5002 (calls "f");
  check_int "calls of g" 5002 (calls "g")

(* --- determinism of the exports --------------------------------------------------- *)

let test_deterministic_reports () =
  let w = workload "030.matrix300" in
  let options =
    { options with fortran_idiom = Workloads.Workload.fortran_idiom w }
  in
  let once () =
    let session, _ = run_profiled ~options w.Workloads.Workload.source in
    let rep = Session.profile_report session in
    (Profile.to_json_string rep, Profile.folded_to_string rep)
  in
  let j1, f1 = once () in
  let j2, f2 = once () in
  check_string "JSON byte-identical across sessions" j1 j2;
  check_string "folded byte-identical across sessions" f1 f2

let test_report_idempotent () =
  let session, _ = run_profiled "int main() { return 7; }" in
  let r1 = Session.profile_report session in
  let r2 = Session.profile_report session in
  check_string "taking the report twice changes nothing"
    (Profile.to_json_string r1) (Profile.to_json_string r2)

let test_merge_folded () =
  Alcotest.(check (list (pair string int)))
    "multiset sum, sorted"
    [ ("a", 4); ("a;b", 2); ("c", 1) ]
    (Profile.merge_folded
       [ [ ("a", 1); ("a;b", 2) ]; [ ("c", 1); ("a", 3) ]; [] ]);
  Alcotest.(check (list (pair string int)))
    "commutative"
    (Profile.merge_folded [ [ ("x", 1) ]; [ ("y", 2) ] ])
    (Profile.merge_folded [ [ ("y", 2) ]; [ ("x", 1) ] ])

(* --- MRS check-density join -------------------------------------------------------- *)

let test_site_check_join () =
  let src =
    "int g; int main() { int i; for (i = 0; i < 25; i = i + 1) { g = g + 2; \
     } return g; }"
  in
  let session = Session.create ~options ~profile:true src in
  Session.install_oracle session;
  let dbg = Debugger.create session in
  let (_ : Debugger.watchpoint) = Debugger.watch dbg "g" in
  let code, _ = Session.run ~fuel:20_000_000 session in
  check_int "exit" 50 code;
  let rep = Session.profile_report session in
  let sites = List.fold_left (fun a b -> a + b.Profile.bb_check_sites) 0 rep.Profile.p_blocks in
  let execs = List.fold_left (fun a b -> a + b.Profile.bb_check_execs) 0 rep.Profile.p_blocks in
  check_bool "some block carries a check site" true (sites > 0);
  check_bool "check executions cover the 25 stores" true (execs >= 25);
  (* The loop back-edge's body carries those check executions — the
     superblock-candidate signal. *)
  match rep.Profile.p_backedges with
  | [] -> Alcotest.fail "loop has no back-edge"
  | be :: _ ->
    check_bool "hot loop body shows check density" true
      (be.Profile.be_check_execs >= 25)

(* --- error contract ----------------------------------------------------------------- *)

let test_profile_report_requires_profile () =
  let session = Session.create "int main() { return 0; }" in
  let code, _ = Session.run ~fuel:1_000_000 session in
  check_int "exit" 0 code;
  check_bool "profile_report without ~profile rejected" true
    (match Session.profile_report session with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* The one observer gate: [without_observers] pauses the profiler and
   the sampler together, nests, and restores the previous state when
   its body raises.  The install checks stay. *)
let test_without_observers_nests () =
  let linked =
    Minic.Compile.compile_and_link
      "int main() { int i; int s; s = 0; for (i = 0; i < 100; i = i + 1) { \
       s = s + i; } return s % 256; }"
  in
  let cpu = Machine.Cpu.create linked.Minic.Compile.image in
  Machine.Cpu.install_basic_services cpu;
  let rejected f =
    match f () with exception Invalid_argument _ -> true | () -> false
  in
  let { Sparc.Assembler.text_base; entry; _ } = linked.Minic.Compile.image in
  let profile info =
    Profile.create ~text_base ~info ~functions:[ (entry, "_start") ] ~entry ()
  in
  check_bool "short counter arrays rejected" true
    (rejected (fun () -> Machine.Cpu.profile_install cpu (profile [||])));
  check_bool "every = 0 rejected" true
    (rejected (fun () -> Machine.Cpu.sample_install cpu ~every:0 ~hook:ignore));
  let p = profile (Machine.Cpu.profile_static cpu) in
  let exec = Profile.exec_array p in
  Machine.Cpu.profile_install cpu p;
  let samples = ref 0 in
  Machine.Cpu.sample_install cpu ~every:1 ~hook:(fun _ -> incr samples);
  (* Exec slots count in steps of 4 above the two kind bits. *)
  let profiled () = Array.fold_left (fun acc v -> acc + (v lsr 2)) 0 exec in
  let steps k = for _ = 1 to k do Machine.Cpu.step cpu done in
  check_bool "observing by default" true (Machine.Cpu.observing cpu);
  steps 10;
  check_int "profiled while observing" 10 (profiled ());
  check_int "sampled while observing" 10 !samples;
  Machine.Cpu.without_observers cpu (fun () ->
      Machine.Cpu.without_observers cpu (fun () -> steps 5);
      check_bool "inner exit keeps the outer pause" false
        (Machine.Cpu.observing cpu);
      steps 5);
  check_bool "outer exit resumes" true (Machine.Cpu.observing cpu);
  check_int "paused steps not profiled" 10 (profiled ());
  check_int "paused steps not sampled" 10 !samples;
  (match
     Machine.Cpu.without_observers cpu (fun () ->
         steps 3;
         raise Exit)
   with
  | exception Exit -> ()
  | () -> Alcotest.fail "Exit was swallowed");
  check_bool "a raise resumes" true (Machine.Cpu.observing cpu);
  steps 10;
  check_int "profiling resumes" 20 (profiled ());
  check_int "sampling resumes" 20 !samples

(* A hand-built profile with no named function charges the run to the
   entry under its hex address, as it would an unnamed callee. *)
let test_no_functions () =
  let linked =
    Minic.Compile.compile_and_link
      "int f(int x) { return x + 1; } int main() { int i; int s; s = 0; \
       for (i = 0; i < 20; i = i + 1) { s = f(s); } return s; }"
  in
  let cpu = Machine.Cpu.create linked.Minic.Compile.image in
  Machine.Cpu.install_basic_services cpu;
  let { Sparc.Assembler.text_base; entry; _ } = linked.Minic.Compile.image in
  let p =
    Profile.create ~text_base ~info:(Machine.Cpu.profile_static cpu)
      ~functions:[] ~entry ()
  in
  Machine.Cpu.profile_install cpu p;
  check_int "exit" 20 (Machine.Cpu.run ~fuel:1_000_000 cpu);
  let instrs = Machine.Cpu.instr_count cpu in
  let rep =
    Profile.report p ~instrs ~cycles:(Machine.Cpu.cycle_count cpu) ()
  in
  let root = fn rep (Printf.sprintf "0x%x" entry) in
  check_int "entry called once" 1 root.Profile.fr_calls;
  check_int "every instruction charged" instrs
    (List.fold_left
       (fun acc f -> acc + f.Profile.fr_excl_instrs)
       0 rep.Profile.p_functions);
  check_bool "callees named by address" true
    (List.for_all
       (fun f -> String.length f.Profile.fr_name > 2
                 && String.sub f.Profile.fr_name 0 2 = "0x")
       rep.Profile.p_functions);
  check_bool "folded stacks rendered" true
    (Profile.folded_to_string rep <> "")

(* --- Chrome-trace edge cases -------------------------------------------------------- *)

let span_events json =
  match json with
  | Export.List evs ->
    List.map
      (fun ev ->
        match ev with
        | Export.Obj fields ->
          let int k =
            match List.assoc_opt k fields with
            | Some (Export.Int n) -> n
            | _ -> Alcotest.failf "event missing int field %S" k
          in
          let str k =
            match List.assoc_opt k fields with
            | Some (Export.Str s) -> s
            | _ -> Alcotest.failf "event missing string field %S" k
          in
          (str "ph", int "ts", (match List.assoc_opt "dur" fields with
                                | Some (Export.Int d) -> d
                                | _ -> 0))
        | _ -> Alcotest.fail "trace event is not an object")
      evs
  | _ -> Alcotest.fail "chrome trace is not a JSON array"

let test_chrome_empty () =
  check_bool "no tracers -> empty event array" true
    (match Trace.to_chrome_json [] with Export.List [] -> true | _ -> false);
  (* A tracer that never recorded a span is the same. *)
  let t = Trace.create ~clock:(fun () -> 1.0) () in
  check_bool "empty tracer -> empty event array" true
    (match Trace.to_chrome_json [ t ] with
    | Export.List [] -> true
    | _ -> false)

let test_chrome_zero_duration () =
  let t = Trace.create ~clock:(fun () -> 42.0) () in
  Trace.begin_span t "blink";
  Trace.end_span t;
  match span_events (Trace.to_chrome_json [ t ]) with
  | [ (ph, ts, dur) ] ->
    check_string "complete event" "X" ph;
    check_int "ts rebased to 0" 0 ts;
    check_int "zero duration survives" 0 dur
  | evs -> Alcotest.failf "expected one event, got %d" (List.length evs)

(* Sub-microsecond nesting: floor-rounding equal-timestamp spans must
   keep children inside parents (monotone quantization). *)
let test_chrome_nesting_after_rounding () =
  let ticks = ref [ 10.0; 10.0000003; 10.0000006; 10.0000009 ] in
  let clock () =
    match !ticks with
    | [] -> 11.0
    | t :: rest ->
      ticks := rest;
      t
  in
  let t = Trace.create ~clock () in
  Trace.begin_span t "outer";
  Trace.begin_span t "inner";
  Trace.end_span t;
  Trace.end_span t;
  let evs = span_events (Trace.to_chrome_json [ t ]) in
  check_int "two events" 2 (List.length evs);
  List.iter
    (fun (_, ts, dur) ->
      check_bool "ts >= 0" true (ts >= 0);
      check_bool "dur >= 0" true (dur >= 0))
    evs;
  (* Pairwise: every interval pair is nested or disjoint. *)
  List.iteri
    (fun i (_, ts1, d1) ->
      List.iteri
        (fun j (_, ts2, d2) ->
          if i <> j then
            check_bool "well-nested after rounding" true
              (ts1 + d1 <= ts2 (* disjoint *)
              || ts2 + d2 <= ts1
              || (ts1 <= ts2 && ts2 + d2 <= ts1 + d1) (* 2 inside 1 *)
              || (ts2 <= ts1 && ts1 + d1 <= ts2 + d2)))
        evs)
    evs

let test_chrome_counters () =
  let t = Trace.create ~clock:(fun () -> 10.0) () in
  Trace.begin_span t "run";
  Trace.end_span t;
  (* A counter sample predating the first span still rebases to ts >= 0. *)
  let json =
    Trace.to_chrome_json ~counters:[ ("sim_instrs", 9.9999, 5) ] [ t ]
  in
  match json with
  | Export.List evs ->
    let phs =
      List.filter_map
        (function
          | Export.Obj fields -> (
            match (List.assoc_opt "ph" fields, List.assoc_opt "ts" fields) with
            | Some (Export.Str ph), Some (Export.Int ts) -> Some (ph, ts)
            | _ -> None)
          | _ -> None)
        evs
    in
    check_bool "has a counter event" true (List.mem_assoc "C" phs);
    List.iter (fun (_, ts) -> check_bool "ts >= 0" true (ts >= 0)) phs
  | _ -> Alcotest.fail "not an array"

(* --- dbp-telemetry/4 ----------------------------------------------------------------- *)

let test_telemetry_v4_counters () =
  check_string "schema bumped" "dbp-telemetry/6" Telemetry.schema_version;
  let reg = Telemetry.create () in
  Telemetry.set reg Telemetry.Profiled_instrs 123;
  Telemetry.set reg Telemetry.Prof_transfers 7;
  let rep = Telemetry.report reg in
  check_int "profiled_instrs exported" 123
    (List.assoc "profiled_instrs" rep.Telemetry.r_counters);
  check_int "prof_transfers exported" 7
    (List.assoc "prof_transfers" rep.Telemetry.r_counters)

let test_telemetry_v4_merge_commutes () =
  let mk a b =
    let reg = Telemetry.create () in
    Telemetry.set reg Telemetry.Profiled_instrs a;
    Telemetry.set reg Telemetry.Prof_transfers b;
    Telemetry.set reg Telemetry.Probe_dispatches (a + b);
    Telemetry.incr reg Telemetry.User_hits;
    Telemetry.report reg
  in
  let r1 = mk 10 3 and r2 = mk 5 7 in
  let m12 = Telemetry.merge [ r1; r2 ] and m21 = Telemetry.merge [ r2; r1 ] in
  check_string "merge is order-independent" (Export.to_json_string m12)
    (Export.to_json_string m21);
  check_int "profiled_instrs summed" 15
    (List.assoc "profiled_instrs" m12.Telemetry.r_counters);
  check_int "prof_transfers summed" 10
    (List.assoc "prof_transfers" m12.Telemetry.r_counters);
  check_int "probe_dispatches summed" 25
    (List.assoc "probe_dispatches" m12.Telemetry.r_counters)

let suites =
  [
    ( "profile.counters",
      [
        Alcotest.test_case "conservation on matrix300" `Slow
          test_conservation_matrix300;
        Alcotest.test_case "stats parity on/off" `Quick test_stats_parity;
        Alcotest.test_case "site-check density join" `Quick
          test_site_check_join;
      ] );
    ( "profile.stacks",
      [
        Alcotest.test_case "call attribution" `Quick test_call_attribution;
        Alcotest.test_case "recursion inclusive once" `Quick
          test_recursion_inclusive;
        Alcotest.test_case "warm transfers allocate nothing" `Quick
          test_warm_transfers_allocate_nothing;
      ] );
    ( "profile.exports",
      [
        Alcotest.test_case "deterministic across sessions" `Slow
          test_deterministic_reports;
        Alcotest.test_case "report is idempotent" `Quick test_report_idempotent;
        Alcotest.test_case "merge_folded" `Quick test_merge_folded;
        Alcotest.test_case "profile_report requires ~profile" `Quick
          test_profile_report_requires_profile;
        Alcotest.test_case "without_observers nests" `Quick
          test_without_observers_nests;
        Alcotest.test_case "no named function" `Quick test_no_functions;
      ] );
    ( "profile.chrome",
      [
        Alcotest.test_case "empty trace" `Quick test_chrome_empty;
        Alcotest.test_case "zero-duration span" `Quick test_chrome_zero_duration;
        Alcotest.test_case "nesting after floor-rounding" `Quick
          test_chrome_nesting_after_rounding;
        Alcotest.test_case "counter tracks" `Quick test_chrome_counters;
      ] );
    ( "profile.telemetry4",
      [
        Alcotest.test_case "v4 counters exported" `Quick
          test_telemetry_v4_counters;
        Alcotest.test_case "v4 merge commutes" `Quick
          test_telemetry_v4_merge_commutes;
      ] );
  ]
