(* perf — the repository's benchmark.  See README.md in this directory.

     perf.exe run --workload W --seed N --seconds S --trace 0|1 [--ledger FILE]
     perf.exe all [--runs R] [--seed N] [--seconds S] [--ledger FILE]
     perf.exe compare A.json B.json [--bench BENCHMARK.json]
     perf.exe smoke [--bench BENCHMARK.json]

   [run] measures one workload in this process, writes its report to
   perf-out/, and prints one JSON object as the last line of stdout: the
   end-to-end metrics when untraced, the per-layer metrics when traced.
   [all] runs every workload in fresh processes and collects the results
   in a ledger; [compare] judges two ledgers against BENCHMARK.json's
   bounds; [smoke] runs every workload at a tiny size and checks its
   output. *)

let workloads =
  [ "debug-batch"; "debug-traced"; "open-verify"; "svc-interactive"; "svc-fleet" ]

let usage () =
  prerr_endline
    "usage: perf.exe run --workload W --seed N --seconds S --trace 0|1 [--ledger FILE]\n\
    \       perf.exe all [--runs R] [--seed N] [--seconds S] [--ledger FILE]\n\
    \       perf.exe compare A.json B.json [--bench BENCHMARK.json]\n\
    \       perf.exe smoke [--bench BENCHMARK.json]";
  exit 2

let dbreakd () =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/dbreakd.exe"

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* Reports, traces and ledgers go here, under the directory run from. *)
let out = "perf-out"

let make_out () = if not (Sys.file_exists out) then Sys.mkdir out 0o755

(* --- one run --------------------------------------------------------------- *)

type outcome = {
  meters : Meter.t list;  (** every loop the run timed, for correctness *)
  metrics : (string * float * string) list;
  report : (string * Json.t) list;  (** extra rows for the report file *)
}

(* The traced tail shared by every workload: configuration sweep and
   daemon probe over the workload's own programs, then the layer table
   and Chrome trace of the traced loop. *)
let traced_tail ~name ~file ~seconds ~(jobs : Wire.job list) ~loop ~peak ~traced ~loop_tracers
    ~gc_minor_words ~gc_major ~wire =
  let sw =
    Layers.sweep
      ~reps:(if seconds < 2.0 then 1 else 3)
      (List.sort_uniq compare (List.map (fun (j : Wire.job) -> (j.prog, j.global)) jobs))
  in
  Wire.recording := true;
  let probe = Wire.probe ~exe:(dbreakd ()) ~tracing:true jobs in
  let wire = wire @ probe.Wire.m.Meter.cmds in
  let metrics =
    Meter.tails loop
    @ [ ("loop.peak_rss_mb", peak, "MB") ]
    @ Layers.metrics ~sw ~loop ~traced ~gc_minor_words ~gc_major ~wire
    @ [ ("host.slowdown", Meter.slowdown (), "ratio") ]
  in
  let wall = traced.Meter.t_end -. traced.Meter.t_start in
  let rows = Layers.table loop_tracers in
  Printf.eprintf "%s: layers of the traced loop (%.2fs wall)\n" name wall;
  Layers.print_table rows ~wall;
  write_file (file ^ ".trace.json")
    (Trace.to_chrome_string (loop_tracers @ (sw.Layers.tracer :: Wire.tracers probe)));
  ( [ probe.Wire.m ],
    metrics,
    [ ("layers", Layers.table_json rows ~wall) ] )

(* [Meter.setup_reps] set-ups, each after a host-speed probe.  [f]
   returns its result and how long the set-up took; set-up is CPU-bound
   wherever it runs, so that time is taken to reference speed. *)
let set_ups f =
  List.init Meter.setup_reps (fun _ ->
      ignore (Meter.host_probe ());
      let r, dt = f () in
      (r, dt /. Meter.slowdown_now ()))

let setup_s timed = ("setup_s", Stats.median (List.map snd timed), "s")

let gc_during f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  (r, g1.Gc.minor_words -. g0.Gc.minor_words, g1.Gc.major_collections - g0.Gc.major_collections)

let run_inproc name ~rng ~seconds ~trace ~file =
  let kind =
    match name with
    | "debug-batch" -> Inproc.Batch
    | "debug-traced" -> Inproc.Traced
    | _ -> Inproc.Open_verify
  in
  let set_up () = Meter.time (fun () -> Inproc.setup kind ~rng) in
  let timed = set_ups set_up in
  let t = fst (List.hd timed) in
  if not trace then begin
    let m = Inproc.loop t ~seconds () in
    Inproc.verify t m;
    let timed = timed @ set_ups set_up in
    {
      meters = [ m ];
      metrics = Meter.end_to_end m @ [ setup_s timed; Meter.rss_mb m ];
      report = [ ("programs", Json.List (Meter.program_rows m)) ];
    }
  end
  else begin
    let loop, gc_minor_words, gc_major =
      gc_during (fun () -> Inproc.loop t ~seconds:(seconds /. 2.0) ())
    in
    let peak = Meter.status_mb "self" "VmHWM" in
    Inproc.verify t loop;
    let tr = Trace.create ~clock:Meter.now () in
    let traced = Inproc.loop t ~seconds:(seconds /. 2.0) ~trace:tr () in
    Inproc.verify t traced;
    let jobs =
      Array.to_list
        (Array.map
           (fun (p : Inputs.program) ->
             {
               Wire.prog = p;
               by_name = false;
               global = Inputs.pick rng p.globals;
               frac = Random.State.float rng 1.0;
               script = Wire.interactive_script;
             })
           t.Inproc.programs)
    in
    let meters, metrics, report =
      traced_tail ~name ~file ~seconds ~jobs ~loop ~peak ~traced
        ~loop_tracers:[ tr ] ~gc_minor_words ~gc_major ~wire:[]
    in
    { meters = loop :: traced :: meters; metrics; report }
  end

(* The session and command times of svc-* wait on dbreakd's poll far
   more than on any CPU, so only set-up is reported at reference speed. *)
let run_wire name ~rng ~seconds ~trace ~file =
  let exe = dbreakd () in
  let set_up () = ((), Wire.setup_time exe) in
  let timed = set_ups set_up in
  let w = Wire.setup ~exe ~rng ~fleet:(name = "svc-fleet") in
  let d = w.Wire.daemon in
  Fun.protect ~finally:(fun () -> Wire.stop d) (fun () ->
      if not trace then begin
        let st = Wire.loop w ~seconds ~tracing:false in
        Wire.verify st;
        Wire.check_metrics st.Wire.m d;
        let timed = timed @ set_ups set_up in
        {
          meters = [ st.Wire.m ];
          metrics = Meter.end_to_end st.Wire.m @ [ setup_s timed; Meter.rss_mb st.Wire.m ];
          report = [ ("programs", Json.List (Meter.program_rows st.Wire.m)) ];
        }
      end
      else begin
        let st0, gc_minor_words, gc_major =
          gc_during (fun () -> Wire.loop w ~seconds:(seconds /. 2.0) ~tracing:false)
        in
        let peak = Meter.status_mb (string_of_int d.Wire.pid) "VmHWM" in
        Wire.recording := true;
        let st1 = Wire.loop w ~seconds:(seconds /. 2.0) ~tracing:true in
        Wire.verify st0;
        Wire.verify st1;
        Wire.check_metrics st1.Wire.m d;
        (* Stopped before the sweep, which it would compete with for CPU. *)
        Wire.stop d;
        let jobs =
          List.init 10 (fun _ -> { (w.Wire.next_job rng) with script = Wire.interactive_script })
        in
        let meters, metrics, report =
          traced_tail ~name ~file ~seconds ~jobs ~loop:st0.Wire.m
            ~peak ~traced:st1.Wire.m ~loop_tracers:(Wire.tracers st1) ~gc_minor_words ~gc_major
            ~wire:(st0.Wire.m.Meter.cmds @ st1.Wire.m.Meter.cmds)
        in
        { meters = st0.Wire.m :: st1.Wire.m :: meters; metrics; report }
      end)

let result_json ~correct ~attempted ~failed metrics =
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (n, v, u) -> (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str u) ]))
             metrics) );
    ]

let append_ledger path entry =
  let runs =
    if Sys.file_exists path then
      match Json.member "runs" (Json.of_string (read_file path)) with
      | Some (Json.List l) -> l
      | _ -> []
    else []
  in
  write_file path
    (Json.to_string
       (Json.Obj [ ("schema", Json.Str "dbp-perf/1"); ("runs", Json.List (runs @ [ entry ])) ])
    ^ "\n")

let run_cmd ~name ~seed ~seconds ~trace ~ledger =
  if not (List.mem name workloads) then usage ();
  make_out ();
  let file =
    Filename.concat out (Printf.sprintf "%s-seed%d-trace%d" name seed (Bool.to_int trace))
  in
  let rng = Inputs.rng ~workload:name ~seed in
  let o =
    if String.starts_with ~prefix:"svc-" name then run_wire name ~rng ~seconds ~trace ~file
    else run_inproc name ~rng ~seconds ~trace ~file
  in
  let attempted = List.fold_left (fun a m -> a + Meter.attempted m) 0 o.meters in
  let failed = List.fold_left (fun a m -> a + Meter.failed m) 0 o.meters in
  let errors = List.concat_map (fun m -> List.rev m.Meter.errors) o.meters in
  let correct = failed = 0 && errors = [] in
  List.iter (fun e -> Printf.eprintf "%s: %s\n" name e) errors;
  List.iter (fun (n, v, u) -> Printf.eprintf "%s: %-28s %14.4f %s\n" name n v u) o.metrics;
  let result = result_json ~correct ~attempted ~failed o.metrics in
  write_file (file ^ ".json")
    (Json.to_string
       (Json.Obj
          ([
             ("schema", Json.Str "dbp-perf/1");
             ("workload", Json.Str name);
             ("seed", Json.Int seed);
             ("seconds", Json.Float seconds);
             ("trace", Json.Bool trace);
             ("result", result);
             ("host_slowdown", Json.Float (Meter.slowdown ()));
             ("errors", Json.List (List.map (fun e -> Json.Str e) errors));
           ]
          @ o.report))
    ^ "\n");
  Option.iter
    (fun path ->
      append_ledger path
        (Json.Obj
           [
             ("workload", Json.Str name);
             ("seed", Json.Int seed);
             ("trace", Json.Bool trace);
             ("result", result);
           ]))
    ledger;
  print_endline (Json.to_string result)

(* --- BENCHMARK.json --------------------------------------------------------- *)

type metric = { m_name : string; m_unit : string; lower_better : bool; bound : float }

let load_bench path =
  let j = Json.of_string (read_file path) in
  let metrics key =
    match Json.member key j with
    | Some (Json.List l) ->
      List.map
        (fun m ->
          let str k = match Json.member k m with Some (Json.Str s) -> s | _ -> "" in
          {
            m_name = str "name";
            m_unit = str "unit";
            lower_better = str "better" = "lower";
            bound = Option.value ~default:0.0 (Option.bind (Json.member "bound" m) Json.to_float);
          })
        l
    | _ -> failwith (path ^ ": no " ^ key)
  in
  (metrics "end_to_end", metrics "per_layer")

(* --- child processes ------------------------------------------------------- *)

let run_args ~name ~seed ~seconds ~trace =
  [ "run"; "--workload"; name; "--seed"; string_of_int seed; "--seconds";
    Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0") ]

(* Run one workload in a fresh process and return its last stdout line;
   its stderr goes to [log] when given. *)
let child ?log args =
  let exe = Sys.executable_name in
  let err =
    match log with
    | Some path -> Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    | None -> Unix.stderr
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w err in
  Unix.close w;
  if log <> None then Unix.close err;
  let ic = Unix.in_channel_of_descr r in
  let lines = In_channel.input_lines ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (status, match List.rev lines with l :: _ -> l | [] -> "")

let all_cmd ~runs ~seed ~seconds ~ledger =
  List.iter
    (fun name ->
      List.iter
        (fun (seed, trace) ->
          let args = run_args ~name ~seed ~seconds ~trace @ [ "--ledger"; ledger ] in
          match child args with
          | Unix.WEXITED 0, line -> Printf.printf "%s seed %d trace %b: %s\n%!" name seed trace line
          | _ ->
            Printf.eprintf "perf: %s seed %d failed\n" name seed;
            exit 1)
        (List.init runs (fun r -> (seed + r, false)) @ [ (seed, true) ]))
    workloads

(* --- compare --------------------------------------------------------------- *)

let load_ledger path =
  match Json.member "runs" (Json.of_string (read_file path)) with
  | Some (Json.List runs) ->
    List.filter_map
      (fun r ->
        match (Json.member "workload" r, Json.member "trace" r, Json.member "result" r) with
        | Some (Json.Str w), Some (Json.Bool false), Some res -> Some (w, res)
        | _ -> None)
      runs
  | _ -> failwith (path ^ ": not a perf ledger")

let values runs w name =
  List.filter_map
    (fun (w', res) ->
      if w' <> w then None
      else
        Option.bind (Json.member "metrics" res) (fun ms ->
            Option.bind (Json.member name ms) (fun m ->
                Option.bind (Json.member "value" m) Json.to_float)))
    runs

let failed_frac runs w =
  let tot k =
    List.fold_left
      (fun a (w', res) ->
        if w' = w then a + (match Json.member k res with Some (Json.Int n) -> n | _ -> 0) else a)
      0 runs
  in
  float_of_int (tot "failed") /. float_of_int (max 1 (tot "attempted"))

let compare_cmd ~bench a b =
  let e2e, _ = load_bench bench in
  let ra = load_ledger a and rb = load_ledger b in
  let names = List.sort_uniq compare (List.map fst ra) in
  let bad = ref false in
  Printf.printf "%-16s %-20s %12s %12s %8s %8s %7s  %s\n" "workload" "metric" "A median"
    "B median" "change" "spread" "bound" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun m ->
          let va = values ra w m.m_name and vb = values rb w m.m_name in
          if va <> [] && vb <> [] then begin
            let ma = Stats.median va and mb = Stats.median vb in
            let worse = (if m.lower_better then mb -. ma else ma -. mb) /. Float.abs ma in
            let spread = Float.max (Stats.rel_iqr va) (Stats.rel_iqr vb) in
            let better x y = if m.lower_better then x < y else x > y in
            let verdict =
              if List.for_all (fun y -> List.for_all (fun x -> better y x) va) vb then "better"
              else if spread > m.bound then "unresolved"
              else if worse > m.bound then "worse"
              else if worse < -.m.bound then "better"
              else "same"
            in
            if verdict = "worse" then bad := true;
            Printf.printf "%-16s %-20s %12.4f %12.4f %7.1f%% %7.1f%% %6.1f%%  %s\n" w m.m_name ma
              mb
              (100.0 *. (mb -. ma) /. Float.abs ma)
              (100.0 *. spread) (100.0 *. m.bound) verdict
          end)
        e2e;
      let fa = failed_frac ra w and fb = failed_frac rb w in
      if fb > fa then bad := true;
      Printf.printf "%-16s %-20s %12.4f %12.4f %43s\n" w "failed_frac" fa fb
        (if fb > fa then "worse" else "same"))
    names;
  exit (if !bad then 1 else 0)

(* --- smoke ----------------------------------------------------------------- *)

(* Every workload at a tiny size, untraced and traced: each run must
   exit 0, report itself correct with no failed session (its own checks
   cover exit codes, the store oracle, wire-vs-in-process answers,
   Verify.ok and dbreakd's /metrics), and print exactly the metrics
   BENCHMARK.json names, with their units. *)
let smoke_cmd ~bench =
  let e2e, per_layer = load_bench bench in
  let ok = ref true in
  make_out ();
  List.iter
    (fun name ->
      List.iter
        (fun trace ->
          let log = Printf.sprintf "%s/smoke-%s-trace%d.log" out name (Bool.to_int trace) in
          let status, line = child ~log (run_args ~name ~seed:1 ~seconds:0.3 ~trace) in
          let problems =
            match (status, Json.of_string line) with
            | Unix.WEXITED 0, res ->
              let expected = if trace then per_layer else e2e in
              let got =
                match Json.member "metrics" res with
                | Some (Json.Obj kvs) ->
                  List.map
                    (fun (k, v) ->
                      ( k,
                        (match Json.member "unit" v with Some (Json.Str u) -> u | _ -> "?"),
                        Option.bind (Json.member "value" v) Json.to_float ))
                    kvs
                | _ -> []
              in
              List.filter_map
                (fun (cond, msg) -> if cond then None else Some msg)
                ([
                   (Json.member "correct" res = Some (Json.Bool true), "not correct");
                   (Json.member "failed" res = Some (Json.Int 0), "failed sessions");
                   ( List.length got = List.length expected,
                     Printf.sprintf "%d metrics, BENCHMARK.json names %d" (List.length got)
                       (List.length expected) );
                 ]
                @ List.map
                    (fun m ->
                      ( List.exists
                          (fun (k, u, v) -> k = m.m_name && u = m.m_unit && v <> None)
                          got,
                        "missing " ^ m.m_name ^ " [" ^ m.m_unit ^ "]" ))
                    expected)
            | _, _ -> [ "exited abnormally" ]
            | exception Json.Parse_error e -> [ "no result line: " ^ e ]
          in
          Printf.printf "perf-smoke %-16s trace=%d %s\n%!" name (Bool.to_int trace)
            (if problems = [] then "ok"
             else Printf.sprintf "FAIL: %s (see %s)" (String.concat "; " problems) log);
          if problems <> [] then ok := false)
        [ false; true ])
    workloads;
  exit (if !ok then 0 else 1)

(* --- command line ---------------------------------------------------------- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let opt name default conv =
    let rec go = function
      | k :: v :: _ when k = name -> (
        match conv v with Some x -> x | None -> usage ())
      | _ :: rest -> go rest
      | [] -> default
    in
    go args
  in
  let some x = Some x in
  let bench = opt "--bench" "BENCHMARK.json" some in
  match args with
  | "run" :: _ ->
    run_cmd
      ~name:(opt "--workload" "" some)
      ~seed:(opt "--seed" 1 int_of_string_opt)
      ~seconds:(opt "--seconds" 15.0 float_of_string_opt)
      ~trace:(opt "--trace" false (function "0" -> Some false | "1" -> Some true | _ -> None))
      ~ledger:(opt "--ledger" None (fun s -> Some (Some s)))
  | "all" :: _ ->
    all_cmd
      ~runs:(opt "--runs" 5 int_of_string_opt)
      ~seed:(opt "--seed" 1 int_of_string_opt)
      ~seconds:(opt "--seconds" 15.0 float_of_string_opt)
      ~ledger:(opt "--ledger" (Filename.concat out "ledger.json") some)
  | [ "compare"; a; b ] | [ "compare"; a; b; "--bench"; _ ] -> compare_cmd ~bench a b
  | "smoke" :: _ -> smoke_cmd ~bench
  | _ -> usage ()
