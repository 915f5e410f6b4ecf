(* Randomized end-to-end property: for arbitrary (terminating) mini-C
   programs, instrumentation under every strategy/optimization level
   must preserve behaviour exactly, and with a region armed the oracle
   must see no missed hits.

   The generator builds structured programs from a fixed variable pool:
   bounded [for] loops only, no recursion, indices masked into range —
   so every generated program terminates and never faults. *)

open Dbp

type genv = { loop_vars : string list; depth : int }

let scalars = [ "g0"; "g1"; "a"; "b"; "c" ]

let rec gen_expr env fuel st =
  let open QCheck.Gen in
  let atom =
    oneof
      [
        map string_of_int (int_range (-20) 20);
        oneofl (scalars @ env.loop_vars);
        (if env.loop_vars = [] then oneofl scalars else oneofl env.loop_vars);
      ]
  in
  if fuel = 0 then atom st
  else
    (frequency
       [
         (2, atom);
         ( 3,
           let* op = oneofl [ "+"; "-"; "*"; "&"; "|"; "^" ] in
           let* l = gen_expr env (fuel - 1) in
           let* r = gen_expr env (fuel - 1) in
           return (Printf.sprintf "(%s %s %s)" l op r) );
         ( 1,
           (* safe division: divisor forced non-zero *)
           let* l = gen_expr env (fuel - 1) in
           let* r = gen_expr env (fuel - 1) in
           return (Printf.sprintf "(%s / ((%s & 7) + 1))" l r) );
         ( 1,
           let* op = oneofl [ "<"; "<="; "=="; "!=" ] in
           let* l = gen_expr env (fuel - 1) in
           let* r = gen_expr env (fuel - 1) in
           return (Printf.sprintf "(%s %s %s)" l op r) );
         ( 1,
           let* idx = gen_expr env (fuel - 1) in
           return (Printf.sprintf "ga[(%s) & 15]" idx) );
       ])
      st

(* Besides masked indices, an element indexed by a loop variable: loops
   run at most 6 times, so it stays in range, and its address sweeps a
   range whose bound reads the variable's home, an alias pseudo (§4.5). *)
let gen_lvalue env st =
  let open QCheck.Gen in
  (oneof
     ([
        oneofl (List.filter (fun v -> not (List.mem v env.loop_vars)) scalars);
        (let* idx = gen_expr env 1 in
         return (Printf.sprintf "ga[(%s) & 15]" idx));
      ]
     @
     if env.loop_vars = [] then []
     else [ map (Printf.sprintf "ga[%s]") (oneofl env.loop_vars) ]))
    st

let rec gen_stmt env st =
  let open QCheck.Gen in
  (frequency
     [
       ( 4,
         let* lv = gen_lvalue env in
         let* e = gen_expr env 2 in
         return (Printf.sprintf "%s = %s;" lv e) );
       ( 1,
         let* e = gen_expr env 2 in
         return (Printf.sprintf "c = helper(%s, b);" e) );
       ( (if env.depth > 0 then 2 else 0),
         let* cond = gen_expr env 1 in
         let* then_ = gen_block { env with depth = env.depth - 1 } in
         let* else_ = gen_block { env with depth = env.depth - 1 } in
         return (Printf.sprintf "if (%s) { %s } else { %s }" cond then_ else_) );
       ( (if env.depth > 0 && List.length env.loop_vars < 3 then 2 else 0),
         let v = Printf.sprintf "i%d" (List.length env.loop_vars) in
         let* n = int_range 1 6 in
         let* body =
           gen_block { loop_vars = v :: env.loop_vars; depth = env.depth - 1 }
         in
         return
           (Printf.sprintf "for (%s = 0; %s < %d; %s = %s + 1) { %s }" v v n v v
              body) );
     ])
    st

and gen_block env st =
  let open QCheck.Gen in
  (let* n = int_range 1 3 in
   let* stmts = list_repeat n (gen_stmt env) in
   return (String.concat " " stmts))
    st

let gen_program st =
  let open QCheck.Gen in
  (let* helper_body = gen_expr { loop_vars = []; depth = 0 } 2 in
   let* body = gen_block { loop_vars = []; depth = 2 } in
   return
     (Printf.sprintf
        {|
int g0;
int g1;
int ga[16];
int helper(int a, int b) {
  int c;
  c = %s;
  return c;
}
int main() {
  int a; int b; int c;
  int i0; int i1; int i2;
  a = 3; b = 5; c = 7;
  %s
  return (g0 ^ g1 ^ a ^ b ^ c ^ ga[3]) & 65535;
}
|}
        helper_body body))
    st

let arb_program = QCheck.make ~print:(fun s -> s) gen_program

let configurations =
  [
    { Instrument.default_options with strategy = Strategy.Bitmap_inline_registers };
    { Instrument.default_options with strategy = Strategy.Cache_inline };
    { Instrument.default_options with strategy = Strategy.Bitmap;
      opt = Instrument.O_symbol };
    { Instrument.default_options with opt = Instrument.O_full };
    { Instrument.default_options with monitor_reads = true };
    { Instrument.default_options with strategy = Strategy.Cache;
      single_cache = true; disabled_guard = false };
  ]

let prop_semantics_and_soundness =
  QCheck.Test.make ~name:"random programs: instrumentation preserves semantics, oracle sound"
    ~count:40 arb_program (fun src ->
      let expect, _ = Minic.Compile.run ~fuel:5_000_000 src in
      List.for_all
        (fun options ->
          let session = Session.create ~options src in
          Session.install_oracle session;
          let dbg = Debugger.create session in
          ignore (Debugger.watch dbg "g0");
          ignore (Debugger.watch dbg "ga");
          let code, _ = Session.run ~fuel:20_000_000 session in
          code = expect && Session.missed_hits session = 0)
        configurations)

(* Differential check for the interpreter's execution paths.  The
   generic run puts a no-op probe on every text pc, which forces every
   step through the probe slow path (the generic [execute]
   interpreter) and keeps every block from forming, with no-op
   store/load hooks exercising the hook dispatch as well.  Three block
   runs must agree with it bit-for-bit — exit code, every stat counter
   (including cache hits/misses and cycles), program output, and final
   memory:
   - a plain run (no probes, no hooks);
   - a run with store and load hooks and no probes, the replay
     recorder's configuration;
   - a run driven by [run_to] at [stride] instructions a call.
   The hooked run also checks the cache counts without the derived
   formula: hits plus misses must equal the fetches (one per executed
   instruction) plus the data accesses its hooks saw, a double-word
   access counting two. *)

let memory_dump cpu =
  let words = ref [] in
  Machine.Memory.iter_written (Machine.Cpu.mem cpu) (fun addr v ->
      words := (addr, v) :: !words);
  !words

let fast_path_matches_generic ~stride src =
  let linked = Minic.Compile.compile_and_link src in
  let image = linked.Minic.Compile.image in
  let fuel = 20_000_000 in
  let machine () =
    let cpu = Machine.Cpu.create image in
    Machine.Cpu.install_basic_services cpu;
    cpu
  in
  (* Generic path: a no-op probe on every pc and no-op hooks. *)
  let slow = machine () in
  for i = 0 to Array.length image.Sparc.Assembler.text - 1 do
    Machine.Cpu.add_probe slow
      (image.Sparc.Assembler.text_base + (4 * i))
      (fun _ -> ())
  done;
  Machine.Cpu.set_store_hook slow (fun _ ~addr:_ ~width:_ -> ());
  Machine.Cpu.set_load_hook slow (fun _ ~addr:_ ~width:_ -> ());
  let slow_code = Machine.Cpu.run ~fuel slow in
  let same cpu code =
    code = slow_code
    && Machine.Cpu.stats cpu = Machine.Cpu.stats slow
    && Machine.Cpu.output cpu = Machine.Cpu.output slow
    && memory_dump cpu = memory_dump slow
  in
  let plain = machine () in
  let plain_code = Machine.Cpu.run ~fuel plain in
  let hooked = machine () in
  let accesses = ref 0 in
  let count _ ~addr:_ ~width =
    accesses := !accesses + if width = Sparc.Insn.Double then 2 else 1
  in
  Machine.Cpu.set_store_hook hooked count;
  Machine.Cpu.set_load_hook hooked count;
  let hooked_code = Machine.Cpu.run ~fuel hooked in
  let hs = Machine.Cpu.stats hooked in
  (* Every [run_to] that does not halt stops exactly on its target. *)
  let strided = machine () in
  let exact = ref true in
  while
    Machine.Cpu.halted strided = None && Machine.Cpu.instr_count strided < fuel
  do
    let target = Machine.Cpu.instr_count strided + stride in
    Machine.Cpu.run_to strided ~insn:target;
    if Machine.Cpu.halted strided = None then
      exact := !exact && Machine.Cpu.instr_count strided = target
  done;
  same plain plain_code
  && same hooked hooked_code
  && hs.Machine.Cpu.cache_hits + hs.Machine.Cpu.cache_misses
     = hs.Machine.Cpu.instrs + !accesses
  && !exact
  && same strided (Option.value ~default:(-1) (Machine.Cpu.halted strided))

let prop_fast_path_differential =
  QCheck.Test.make
    ~name:"random programs: pre-decoded fast path == generic interpreter"
    ~count:30
    (QCheck.pair arb_program
       (QCheck.make ~print:string_of_int (QCheck.Gen.int_range 1 40)))
    (fun (src, stride) -> fast_path_matches_generic ~stride src)

(* Observed legs of the same check: a session with the profiler and the
   sampler installed runs in blocks, in [run_slice]s of [stride]
   instructions, and must observe exactly what the same session observes
   when a no-op probe on every slot makes every instruction a step: exec
   and taken counts, the profile report with its folded stacks, and every
   sample's instruction count and values.  [O_full] adds the loop
   pre-header patches, which turn slots into branches mid-run. *)
let observed_blocks_match_steps ?(watch = "g0") ~every ~stride src =
  let leg ~options ~stepped =
    let session = Session.create ~options ~profile:true ~sample_every:every src in
    ignore (Debugger.watch (Debugger.create session) watch);
    let cpu = session.Session.cpu in
    let image = session.Session.image in
    if stepped then
      Array.iteri
        (fun i _ ->
          Machine.Cpu.add_probe cpu (image.Sparc.Assembler.text_base + (4 * i)) ignore)
        image.Sparc.Assembler.text;
    let rec go () =
      match Session.run_slice ~fuel:stride session with
      | `Exited result -> result
      | `Running _ -> go ()
    in
    let result = if stepped then Session.run ~fuel:20_000_000 session else go () in
    let p = Option.get session.Session.profiler in
    ( result,
      Session.stats session,
      Array.to_list (Profile.exec_array p),
      Array.to_list (Profile.taken_array p),
      Session.profile_report session,
      (Session.report session).Telemetry.r_samples )
  in
  List.for_all
    (fun options -> leg ~options ~stepped:false = leg ~options ~stepped:true)
    [ Instrument.default_options; { Instrument.default_options with opt = Instrument.O_full } ]

let prop_observed_differential =
  QCheck.Test.make
    ~name:"random programs: observed blocks == observed steps"
    ~count:30
    (QCheck.triple arb_program
       (QCheck.make ~print:string_of_int (QCheck.Gen.oneofl [ 1; 2; 3; 7; 50_000 ]))
       (QCheck.make ~print:string_of_int
          QCheck.Gen.(oneof [ int_range 1 40; int_range 1 5_000 ])))
    (fun (src, every, stride) -> observed_blocks_match_steps ~every ~stride src)

(* [gen_program] never recurses, so one fixed program drives the
   register windows far past the 8 resident ones: 40 and 25 deep, with
   locals live across every call and a two-way recursion on the way. *)
let recursive_program =
  "int calls; int acc[8];\n\
   int fib(int n) { int a; int b; calls = calls + 1; if (n < 2) { return n; } \
   a = fib(n - 1); b = fib(n - 2); return a + b; }\n\
   int down(int n) { int r; int k; k = n * 3; acc[n % 8] = acc[n % 8] + k; \
   if (n == 0) { r = fib(6); } else { r = down(n - 1) + k; } return r - n; }\n\
   int main() { int s; s = down(40); s = s + down(25); \
   return (s + calls + acc[3]) & 255; }\n"

let test_recursive_differential () =
  Alcotest.(check bool)
    "recursive program: fast path == generic interpreter" true
    (fast_path_matches_generic ~stride:7 recursive_program);
  Alcotest.(check bool)
    "recursive program: observed blocks == observed steps" true
    (observed_blocks_match_steps ~watch:"calls" ~every:7 ~stride:7
       recursive_program)

(* Translation validation on generated programs: every [O_full] plan,
   with and without alias checks, must verify with no [Refuted]
   obligation.  [Unknown] obligations are allowed but counted, and the
   total is printed so the rate stays visible in the test log. *)
let verifier_plans = ref 0
let verifier_unknown = ref 0

let prop_verifier_sound =
  QCheck.Test.make ~name:"random programs: O_full plans verify, none refuted"
    ~count:60 arb_program (fun src ->
      List.for_all
        (fun check_aliases ->
          let options =
            { Instrument.default_options with opt = Instrument.O_full; check_aliases }
          in
          let session = Session.create ~options src in
          let rep =
            Verify.run ~audit:(Audit.report session.Session.audit)
              session.Session.plan
          in
          incr verifier_plans;
          verifier_unknown := !verifier_unknown + rep.Verify.v_unknown;
          if rep.Verify.v_refuted > 0 then
            QCheck.Test.fail_reportf "check_aliases=%b: %s" check_aliases
              (Verify.summary_line rep);
          true)
        [ false; true ])

let verifier_case =
  let name, speed, run = QCheck_alcotest.to_alcotest prop_verifier_sound in
  ( name,
    speed,
    fun () ->
      run ();
      Printf.printf "verifier on random programs: %d plans, %d unknown obligations\n"
        !verifier_plans !verifier_unknown )

(* Fuel slicing on generated programs: a session run in slices of a
   random size, with a random checkpoint interval, must end exactly as
   one [Session.run] of the same program does — exit code, output,
   stats, debugger hits, telemetry, and the retroactive answers about
   [g0].  dbreakd serves every [run] through [run_slice]. *)
type run_result = {
  code : int;
  output : string;
  stats : Machine.Cpu.stats;
  hits : (int * int * string option * Mrs.access * int) list;
  telemetry : string;
  last_write : Session.write_record option;
  history : Session.write_record list;
}

let run_watched ~options ~checkpoint_every ~slice src =
  let session = Session.create ~options ~checkpoint_every src in
  let dbg = Debugger.create session in
  ignore (Debugger.watch dbg "g0");
  let code, output =
    match slice with
    | None -> Session.run ~fuel:20_000_000 session
    | Some fuel ->
      let rec go () =
        match Session.run_slice ~fuel session with
        | `Exited result -> result
        | `Running _ -> go ()
      in
      go ()
  in
  let g0 = Option.get (Session.resolve_addr session "g0") in
  {
    code;
    output;
    stats = Session.stats session;
    hits =
      List.map
        (fun (e : Debugger.event) ->
          (e.Debugger.addr, e.Debugger.pc, e.Debugger.in_function,
           e.Debugger.access, e.Debugger.value))
        (Debugger.events dbg);
    telemetry = Export.to_text (Session.report session);
    last_write = Session.last_write session ~addr:g0;
    history = Session.write_history session ~lo:g0 ~hi:(g0 + 4);
  }

let slicing_configurations =
  [
    Instrument.default_options;
    { Instrument.default_options with opt = Instrument.O_symbol };
    { Instrument.default_options with opt = Instrument.O_full };
    { Instrument.default_options with opt = Instrument.O_full; check_aliases = true };
  ]

let prop_slicing_matches_run =
  QCheck.Test.make ~name:"random programs: run_slice to exit == one run"
    ~count:40
    (QCheck.triple arb_program
       (* Most generated programs run a few hundred to a few thousand
          instructions, so short slices and intervals are drawn often
          enough to cut every run into many slices and windows. *)
       (QCheck.make ~print:string_of_int
          QCheck.Gen.(oneof [ int_range 1 100; int_range 1 5_000 ]))
       (QCheck.int_range 50 2_000))
    (fun (src, slice, checkpoint_every) ->
      List.for_all
        (fun options ->
          run_watched ~options ~checkpoint_every ~slice:None src
          = run_watched ~options ~checkpoint_every ~slice:(Some slice) src)
        slicing_configurations)

(* Retroactive queries against ground truth (the fuzzed form of
   test_replay's full-trace check): an unrecorded run with g0 watched
   logs every store to g0 and ga as it happens, and a recorded run must
   answer [last_write] and [write_history] over each exactly as the log
   says.  Every opt level, with and without alias checks, at a random
   checkpoint interval and a random journal budget small enough that
   most journals thin.  The thinned journals and the alias regions the
   recorded runs created are counted, and both must be seen. *)
let journals_thinned = ref 0
let alias_regions_created = ref 0

let journal_configurations =
  List.concat_map
    (fun opt ->
      List.map
        (fun check_aliases -> { Instrument.default_options with opt; check_aliases })
        [ false; true ])
    Instrument.[ O0; O_symbol; O_full ]

let journal_matches_store_log ~options ~checkpoint_every ~checkpoint_budget src =
  let watched ?checkpoint_every ?checkpoint_budget () =
    let s = Session.create ~options ?checkpoint_every ?checkpoint_budget src in
    ignore (Debugger.watch (Debugger.create s) "g0");
    s
  in
  let plain = watched () in
  let span v =
    let lo = Option.get (Session.resolve_addr plain v) in
    (lo, lo + Sparc.Symtab.size_bytes (Option.get (Sparc.Symtab.lookup plain.Session.symtab v)))
  in
  let spans = List.map span [ "g0"; "ga" ] in
  let log =
    Test_replay.log_stores plain.Session.cpu
      ~lo:(List.fold_left (fun a (lo, _) -> min a lo) max_int spans)
      ~hi:(List.fold_left (fun a (_, hi) -> max a hi) 0 spans)
  in
  ignore (Session.run ~fuel:20_000_000 plain);
  let truth = log () in
  let recorded = watched ~checkpoint_every ~checkpoint_budget () in
  ignore (Session.run ~fuel:20_000_000 recorded);
  let r = Option.get (Session.replay recorded) in
  if Journal.evictions (Replay.journal r) > 0 then incr journals_thinned;
  List.iter
    (fun (e : Audit.region_event) ->
      if e.Audit.rg_kind = Audit.Region_created && e.Audit.rg_why = "loop-preheader"
      then incr alias_regions_created)
    (Audit.report recorded.Session.audit).Audit.a_regions;
  List.for_all
    (fun (lo, hi) ->
      let truth = Test_replay.within ~lo ~hi truth in
      Option.map Test_replay.gt_of_hit (Replay.query r (Replay.Last_write { lo; hi }))
      = Test_replay.last_of truth
      && List.map
           (fun (w : Session.write_record) -> Test_replay.gt_of_hit w.Session.wr_hit)
           (Session.write_history recorded ~lo ~hi)
         = truth)
    spans

let prop_journal_ground_truth =
  QCheck.Test.make ~name:"random programs: journal answers == unrecorded store log"
    ~count:40
    (QCheck.triple arb_program (QCheck.int_range 50 2_000)
       (* Log-uniform: generated journals are small next to most of
          the range, so a uniform draw could leave none thinned. *)
       (QCheck.make ~print:string_of_int
          QCheck.Gen.(
            map (fun e -> int_of_float (Float.exp e)) (float_range 0. (Float.log 400_000.)))))
    (fun (src, checkpoint_every, checkpoint_budget) ->
      List.for_all
        (fun (options : Instrument.options) ->
          journal_matches_store_log ~options ~checkpoint_every ~checkpoint_budget src
          || QCheck.Test.fail_reportf "opt=%s check_aliases=%b: answers differ from the log"
               (Frontend.opt_name options.Instrument.opt) options.Instrument.check_aliases)
        journal_configurations)

(* One answer through every front end: the daemon, fed a session over
   its in-memory client at a random slice and shard count, must answer
   exactly as one in-process [Session] run plus its queries — exit code
   and output, the hit stream, and the last-write, history and travel
   replies.  Two sessions run the same script, so slices of one
   interleave with the other's on a shared shard. *)
let frontend_bodies ~opt ~watch ~len ~travel_frac src =
  let options =
    { Instrument.default_options with
      strategy = Strategy.of_string "BitmapInlineRegisters";
      opt = Result.get_ok (Frontend.parse_opt opt) }
  in
  let s = Session.create ~options ~checkpoint_every:10_000 src in
  let dbg = Debugger.create s in
  let hits = ref [] in
  Debugger.set_on_event dbg (fun e ->
      hits :=
        Proto.Hit
          { name = e.Debugger.watch.Debugger.wname;
            insn = Machine.Cpu.instr_count s.Session.cpu; pc = e.Debugger.pc;
            addr = e.Debugger.addr; value = e.Debugger.value;
            func = Option.value ~default:"?" e.Debugger.in_function }
        :: !hits);
  ignore (Debugger.watch dbg watch);
  let code, output = Session.run s in
  let executed = Machine.Cpu.instr_count s.Session.cpu in
  let run = List.rev !hits @ [ Proto.Exited { code; executed; output } ] in
  let addr = Option.get (Session.resolve_addr s watch) in
  let wtype = function Some wt -> Write_type.to_string wt | None -> "untyped" in
  let last =
    match Session.last_write s ~addr with
    | None -> Proto.Never_written { target = watch; addr }
    | Some { Session.wr_hit = h; wr_write_type } ->
      Proto.Last_write
        { target = watch; addr; insn = h.h_insn; pc = h.h_pc; old_v = h.h_old;
          new_v = h.h_new; wtype = wtype wr_write_type;
          func = Option.value ~default:"?" (Debugger.function_of_pc s h.h_pc) }
  in
  let writes = Session.write_history s ~lo:addr ~hi:(addr + len) in
  let history =
    Proto.History { count = List.length writes }
    :: List.map
         (fun { Session.wr_hit = h; wr_write_type } ->
           Proto.Write
             { insn = h.h_insn; pc = h.h_pc; addr = h.h_addr; old_v = h.h_old;
               new_v = h.h_new; wtype = wtype wr_write_type })
         writes
  in
  let insn = executed * travel_frac / 1000 in
  let reexecuted = Session.time_travel s ~insn in
  let travel = Proto.Traveled { insn; reexecuted; pc = Machine.Cpu.pc s.Session.cpu } in
  (run @ [ last ] @ history @ [ travel ], insn)

let daemon_matches_session (src, opt, watch, len, travel_frac, slice, shards) =
  let expected, insn = frontend_bodies ~opt ~watch ~len ~travel_frac src in
  let t = Daemon.create ~shards ~slice () in
  Fun.protect
    ~finally:(fun () -> Daemon.shutdown t)
    (fun () ->
      let c = Daemon.client t in
      let sids = [ "p"; "q" ] in
      List.iter
        (fun sid ->
          List.iter
            (fun cmd -> Daemon.submit t c (Proto.encode_command cmd))
            [ Proto.Open
                { sid; source = Proto.Program src;
                  strategy = "BitmapInlineRegisters"; opt };
              Proto.Arm { sid; target = Proto.Var watch };
              Proto.Run { sid; fuel = 100_000_000 };
              Proto.Query_last_write { sid; target = watch };
              Proto.Query_history { sid; target = watch; len };
              Proto.Travel { sid; insn };
              Proto.Close { sid } ])
        sids;
      Daemon.drain t;
      let replies = List.map (fun l -> Result.get_ok (Proto.decode_reply l)) (Daemon.output c) in
      List.for_all
        (fun sid ->
          let got =
            List.filter_map
              (fun { Proto.r_sid; r_body; _ } ->
                match r_body with
                | (Proto.Opened _ | Armed _ | Closed) when r_sid = sid -> None
                | body when r_sid = sid -> Some body
                | _ -> None)
              replies
          in
          got = expected
          || QCheck.Test.fail_reportf "session %s: %d replies, expected %d" sid
               (List.length got) (List.length expected))
        sids)

let prop_daemon_matches_session =
  QCheck.Test.make ~name:"random programs: dbreakd answers == one Session" ~count:100
    QCheck.(
      make
        ~print:(fun (src, opt, watch, len, frac, slice, shards) ->
          Printf.sprintf "%s\n-O %s watch %s len %d travel %d/1000 slice %d shards %d"
            src opt watch len frac slice shards)
        Gen.(
          let* src = gen_program in
          let* opt = oneofl [ "none"; "symbol"; "full" ] in
          let* watch = oneofl [ "g0"; "g1"; "ga" ] in
          let* len = int_range 1 64 in
          let* frac = int_range 0 1000 in
          let* slice = oneof [ int_range 1 100; int_range 1 5_000 ] in
          let* shards = int_range 1 3 in
          return (src, opt, watch, len, frac, slice, shards)))
    daemon_matches_session

let suites =
  [
    ( "dbp.fuzz",
      [
        QCheck_alcotest.to_alcotest prop_semantics_and_soundness;
        QCheck_alcotest.to_alcotest prop_fast_path_differential;
        QCheck_alcotest.to_alcotest prop_observed_differential;
        verifier_case;
        QCheck_alcotest.to_alcotest prop_slicing_matches_run;
        QCheck_alcotest.to_alcotest prop_daemon_matches_session;
        (let name, speed, run = QCheck_alcotest.to_alcotest prop_journal_ground_truth in
         ( name,
           speed,
           fun () ->
             run ();
             Alcotest.(check bool) "some journals thinned" true (!journals_thinned > 0);
             Alcotest.(check bool) "some alias regions created" true
               (!alias_regions_created > 0) ));
        Alcotest.test_case "recursive program: pre-decoded fast path == generic"
          `Quick test_recursive_differential;
      ] );
  ]
