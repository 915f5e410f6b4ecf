open Dbp

(* Tests for the time-series telemetry subsystem: sample-ring
   conservation against the end-of-run registry, sampler/heatmap
   pause around replay queries, the zero-added-work contract when
   sampling is off, the v5 report round-trip and the sample-ring merge
   invariant (concatenate, then sort), windowed rate summaries, the
   address-space heatmap's page accounting and renders, the Prometheus
   exposition lint, and the in-process scrape endpoint. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let counter rep name =
  match List.assoc_opt name rep.Telemetry.r_counters with
  | Some v -> v
  | None -> Alcotest.failf "report has no counter %S" name

let options =
  { Instrument.default_options with strategy = Strategy.Bitmap_inline_registers }

let loop_src =
  "int g; int a[64];\n\
   int main() {\n\
  \  int i; int j;\n\
  \  for (j = 0; j < 40; j = j + 1) {\n\
  \    for (i = 0; i < 64; i = i + 1) { a[i] = a[i] + j; g = g + 1; }\n\
  \  }\n\
  \  return 0;\n\
   }\n"

let run_sampled ?checkpoint_every ?(sample_every = 1_000) ?(heatmap = true) src
    =
  let session =
    Session.create ~options ?checkpoint_every ~sample_every ~heatmap src
  in
  Mrs.enable session.Session.mrs;
  let code, _ = Session.run ~fuel:20_000_000 session in
  check_int "exit" 0 code;
  session

(* --- conservation ------------------------------------------------------------ *)

(* The ring's last sample must equal the end-of-run registry values for
   every sampled metric, and the heatmap's per-page write counts must
   sum to the machine's store total (published as [store_execs]). *)
let test_conservation () =
  let session = run_sampled loop_src in
  let rep = Session.report session in
  let t = session.Session.telemetry in
  check_int "sample interval in report" 1_000 rep.Telemetry.r_sample_every;
  Alcotest.(check (list string))
    "metric set"
    [ "check_execs"; "user_hits"; "cache_misses"; "checkpoint_bytes";
      "replayed_instrs" ]
    rep.Telemetry.r_sample_metrics;
  let samples = rep.Telemetry.r_samples in
  check_bool "has samples" true (samples <> []);
  (* Samples land on the interval grid (except the final closing one)
     and are strictly increasing. *)
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) ->
      (a : Telemetry.sample).s_insn < b.Telemetry.s_insn
      && strictly_increasing rest
    | _ -> true
  in
  check_bool "strictly increasing" true (strictly_increasing samples);
  let rec all_but_last = function
    | [] | [ _ ] -> []
    | x :: rest -> x :: all_but_last rest
  in
  List.iter
    (fun (s : Telemetry.sample) ->
      check_int
        (Printf.sprintf "sample at insn %d on the grid" s.s_insn)
        0 (s.s_insn mod 1_000))
    (all_but_last samples);
  (* Last sample = end-of-run registry values, metric by metric. *)
  let last = List.nth samples (List.length samples - 1) in
  let expect =
    [
      ("check_execs", Telemetry.current t Telemetry.Check_execs);
      ("user_hits", Telemetry.current t Telemetry.User_hits);
      ("cache_misses", Telemetry.typed_total t Telemetry.Cache_misses_by_type);
      ("checkpoint_bytes", Telemetry.current t Telemetry.Checkpoint_bytes);
      ("replayed_instrs", Telemetry.current t Telemetry.Replayed_instrs);
    ]
  in
  List.iter
    (fun (name, v) ->
      check_int ("last sample " ^ name) v
        (match List.assoc_opt name last.Telemetry.s_values with
        | Some x -> x
        | None -> Alcotest.failf "last sample has no metric %S" name))
    expect;
  check_int "last sample closes at the final instruction"
    (Machine.Cpu.instr_count session.Session.cpu)
    last.Telemetry.s_insn;
  (* Ring accounting: every push is either retained or counted dropped. *)
  check_int "samples_taken = retained + dropped"
    (counter rep "samples_taken")
    (List.length samples + rep.Telemetry.r_samples_dropped);
  (* Heatmap conservation: page-painted stores sum to the machine's
     store total, and hit density to the MRS's user hits. *)
  let hm = Option.get session.Session.heatmap in
  let stats = Session.stats session in
  check_int "heatmap writes = stats.stores" stats.Machine.Cpu.stores
    (Heatmap.total_writes hm);
  check_int "heatmap writes = store_execs counter"
    (counter rep "store_execs")
    (Heatmap.total_writes hm);
  check_int "heatmap hits = user hits"
    (Telemetry.current t Telemetry.User_hits)
    (Heatmap.total_hits hm);
  check_bool "checks painted" true (Heatmap.total_checks hm > 0);
  check_bool "checks never exceed writes" true
    (Heatmap.total_checks hm <= Heatmap.total_writes hm);
  (* Monitored marks: the watched globals' page carries hits, so no
     monitored page is silent on this workload. *)
  Session.heatmap_sync_regions session;
  check_int "no monitored page is silent" 0
    (List.length (Heatmap.never_fired hm));
  (* Reports are idempotent: a second freeze adds no phantom samples. *)
  let rep2 = Session.report session in
  check_bool "second report identical" true (rep = rep2)

(* --- replay queries leave the series alone ----------------------------------- *)

(* A retroactive query rolls the machine back and re-executes; every
   observer sits behind the machine's one pause gate, so the profile,
   the sample ring and the heatmap's page counts are identical before
   and after all three queries — and the monotonic [store_execs] gauge
   keeps conserving against the heatmap.  The debugger's notification
   callback is not an observer: replayed hits still reach it. *)
let test_replay_pauses_observers () =
  let session =
    Session.create ~options ~checkpoint_every:2_000 ~profile:true
      ~sample_every:1_000 ~heatmap:true loop_src
  in
  let dbg = Debugger.create session in
  ignore (Debugger.watch dbg "g");
  let code, _ = Session.run ~fuel:20_000_000 session in
  check_int "exit" 0 code;
  let rep1 = Session.report session in
  let hm = Option.get session.Session.heatmap in
  let prof = Option.get session.Session.profiler in
  let observed () =
    ( Profile.profiled_instrs prof,
      Heatmap.total_writes hm,
      Heatmap.total_checks hm,
      Heatmap.total_hits hm )
  in
  let before = observed () in
  let _, _, _, hits1 = before in
  check_bool "the watch hit" true (hits1 > 0);
  let events1 = List.length (Debugger.events dbg) in
  let addr =
    match Session.resolve_addr session "g" with
    | Some a -> a
    | None -> Alcotest.fail "cannot resolve g"
  in
  (match Session.last_write session ~addr with
  | Some { Session.wr_hit = h; _ } ->
    check_bool "last write found a store" true (h.Replay.h_new > 0)
  | None -> Alcotest.fail "g was written but last_write found nothing");
  check_bool "write history found stores" true
    (Session.write_history session ~lo:addr ~hi:(addr + 4) <> []);
  check_bool "travel re-executed" true
    (Session.time_travel session ~insn:(Machine.Cpu.instr_count session.Session.cpu / 2)
    > 0);
  check_bool "observing after the queries" true
    (Machine.Cpu.observing session.Session.cpu);
  let rep2 = Session.report session in
  let p1, w1, c1, h1 = before and p2, w2, c2, h2 = observed () in
  check_int "profiled instrs unchanged by replay" p1 p2;
  check_int "heatmap writes unchanged by replay" w1 w2;
  check_int "heatmap checks unchanged by replay" c1 c2;
  check_int "heatmap hits unchanged by replay" h1 h2;
  check_bool "sample ring unchanged by replay" true
    (rep1.Telemetry.r_samples = rep2.Telemetry.r_samples);
  check_int "store_execs gauge survives the rollback"
    (counter rep1 "store_execs")
    (counter rep2 "store_execs");
  check_bool "replayed instructions were counted" true
    (counter rep2 "replayed_instrs" > 0);
  check_bool "replayed hits reach the debugger" true
    (List.length (Debugger.events dbg) > events1)

(* --- zero added work when disabled ------------------------------------------- *)

(* Sampling and the heatmap must not perturb the simulated machine: a
   sampled and an unsampled run agree on every architectural stat. *)
let test_stats_parity () =
  let run sample =
    let session =
      if sample then
        Session.create ~options ~sample_every:500 ~heatmap:true loop_src
      else Session.create ~options loop_src
    in
    Mrs.enable session.Session.mrs;
    let code, _ = Session.run ~fuel:20_000_000 session in
    (code, Machine.Cpu.stats session.Session.cpu)
  in
  let code_on, on = run true in
  let code_off, off = run false in
  check_int "exit" code_off code_on;
  check_bool "stats identical with sampling on" true (on = off)

let test_bad_intervals_rejected () =
  let t = Telemetry.create () in
  check_bool "every = 0 rejected" true
    (match
       Timeseries.create ~every:0 ~registry:t ~metrics:[] ()
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let rep = Telemetry.report t in
  check_bool "window = 0 rejected" true
    (match Timeseries.summarize ~window:0 rep with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- windowed summaries ------------------------------------------------------- *)

let report_with_samples ?(capacity = 16) ?(every = 50)
    ?(metrics = [ "m" ]) samples =
  let t = Telemetry.create () in
  Telemetry.set_sample_capacity t capacity;
  Telemetry.set_sample_meta t ~every ~metrics;
  List.iter
    (fun (insn, values) ->
      Telemetry.record_sample t { Telemetry.s_insn = insn; s_values = values })
    samples;
  Telemetry.report t

let test_summarize_windows () =
  let rep =
    report_with_samples
      [
        (50, [ ("m", 5) ]);
        (100, [ ("m", 10) ]);
        (150, [ ("m", 25) ]);
        (250, [ ("m", 30) ]);
      ]
  in
  match Timeseries.summarize ~window:100 rep with
  | [ s ] ->
    check_string "metric" "m" s.Timeseries.ws_metric;
    check_int "window" 100 s.Timeseries.ws_window;
    check_int "windows cover the run" 3 s.Timeseries.ws_windows;
    check_int "total is the final value" 30 s.Timeseries.ws_total;
    (* Window 1 holds samples at insn 100 and 150; its boundary value
       25 minus window 0's 5 is the peak increment. *)
    check_int "peak increment" 20 s.Timeseries.ws_peak;
    check_int "peak window" 1 s.Timeseries.ws_peak_window
  | l -> Alcotest.failf "expected one summary, got %d" (List.length l)

let test_summarize_empty () =
  let rep = report_with_samples [] in
  check_bool "no samples, no summaries" true
    (Timeseries.summarize rep = [])

let test_timeseries_json () =
  let rep =
    report_with_samples [ (50, [ ("m", 5) ]); (100, [ ("m", 9) ]) ]
  in
  let s = Timeseries.to_json_string rep in
  check_bool "schema stamped" true
    (match Timeseries.to_json rep with
    | Export.Obj fields ->
      List.assoc_opt "schema" fields
      = Some (Export.Str Timeseries.schema_version)
    | _ -> false);
  check_string "rendering is deterministic" s (Timeseries.to_json_string rep)

(* --- v5 report round-trip and merge ------------------------------------------ *)

let test_v5_round_trip () =
  let t = Telemetry.create ~ring_capacity:2 () in
  Telemetry.set_tag t "strategy" "bitmap";
  Telemetry.incr t Telemetry.User_hits;
  Telemetry.incr_typed t Telemetry.Cache_misses_by_type 1;
  Telemetry.set_sample_capacity t 2;
  Telemetry.set_sample_meta t ~every:50 ~metrics:[ "m"; "n" ];
  (* Three pushes into a 2-slot ring: one sample drops, so the dropped
     count round-trips too. *)
  List.iter
    (fun (insn, v) ->
      Telemetry.record_sample t
        { Telemetry.s_insn = insn; s_values = [ ("m", v); ("n", 2 * v) ] })
    [ (50, 1); (100, 2); (150, 3) ];
  let rep = Telemetry.report t in
  check_string "schema is v5 or later" "dbp-telemetry/6" rep.Telemetry.r_schema;
  check_int "one sample dropped" 1 rep.Telemetry.r_samples_dropped;
  check_int "two retained" 2 (List.length rep.Telemetry.r_samples);
  let s = Export.to_json_string ~indent:1 rep in
  check_bool "v5 report survives JSON round-trip" true
    (Export.of_json_string s = rep);
  (* A prior-version document must be rejected, not half-parsed. *)
  let broken =
    match Export.to_json rep with
    | Export.Obj fields ->
      Export.Obj
        (List.map
           (fun (k, v) ->
             if k = "schema" then (k, Export.Str "dbp-telemetry/4") else (k, v))
           fields)
    | _ -> Alcotest.fail "report JSON is not an object"
  in
  check_bool "v4 schema rejected" true
    (match Export.of_json broken with
    | exception Export.Parse_error _ -> true
    | _ -> false)

let test_merge_samples () =
  let a =
    report_with_samples ~every:50 [ (100, [ ("m", 2) ]); (200, [ ("m", 4) ]) ]
  in
  let b =
    report_with_samples ~every:50 [ (50, [ ("m", 1) ]); (150, [ ("m", 3) ]) ]
  in
  let m1 = Telemetry.merge [ a; b ] and m2 = Telemetry.merge [ b; a ] in
  check_bool "merge order-independent" true (m1 = m2);
  Alcotest.(check (list int))
    "samples sorted by instruction count" [ 50; 100; 150; 200 ]
    (List.map (fun (s : Telemetry.sample) -> s.s_insn) m1.Telemetry.r_samples);
  check_int "agreeing intervals survive" 50 m1.Telemetry.r_sample_every;
  (* Disagreeing intervals collapse to 0 (unset). *)
  let c = report_with_samples ~every:75 [ (75, [ ("m", 1) ]) ] in
  check_int "disagreeing intervals collapse" 0
    (Telemetry.merge [ a; c ]).Telemetry.r_sample_every;
  (* Dropped counts add. *)
  let d =
    report_with_samples ~capacity:1 ~every:50
      [ (10, [ ("m", 1) ]); (20, [ ("m", 2) ]) ]
  in
  check_int "dropped counts add" 1
    (Telemetry.merge [ a; d ]).Telemetry.r_samples_dropped

(* --- heatmap unit behavior ---------------------------------------------------- *)

let test_heatmap_pages () =
  let hm = Heatmap.create ~page_bits:12 () in
  check_int "page bytes" 4096 (Heatmap.page_bytes hm);
  Heatmap.record_write hm 0x1000;
  Heatmap.record_write hm 0x1fff;
  Heatmap.record_write hm 0x2000;
  Heatmap.record_check hm 0x1004;
  Heatmap.record_hit hm 0x2004;
  check_int "two touched pages" 2 (Heatmap.n_pages hm);
  check_int "writes" 3 (Heatmap.total_writes hm);
  check_int "checks" 1 (Heatmap.total_checks hm);
  check_int "hits" 1 (Heatmap.total_hits hm);
  (* A monitored range spanning a page boundary paints both pages; the
     one without hits is reported never-fired. *)
  Heatmap.mark_monitored hm ~lo:0x1ff0 ~hi:0x2008;
  Alcotest.(check (list int)) "never-fired monitored page" [ 1 ]
    (Heatmap.never_fired hm);
  check_bool "bad page_bits rejected" true
    (match Heatmap.create ~page_bits:0 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* More pages than the lookup cache has slots, some of them negative
   as normalized words: stores cycling through them evict each other's
   slots and still land on their own page. *)
let test_heatmap_slot_conflicts () =
  let hm = Heatmap.create ~page_bits:12 () in
  let pages =
    List.init 20 (fun k -> 0x400 + (64 * k))
    @ List.init 20 (fun k -> Sparc.Word.norm (0xA000_0000 + (k lsl 12)) lsr 12)
  in
  for i = 1 to 3 do
    List.iter (fun p -> for _ = 1 to i do Heatmap.record_write hm (p lsl 12) done) pages
  done;
  let writes =
    match Heatmap.to_json hm with
    | Export.Obj fields -> (
      match List.assoc "cells" fields with
      | Export.List cells ->
        List.map
          (function
            | Export.Obj c -> (
              match (List.assoc "page" c, List.assoc "writes" c) with
              | Export.Int p, Export.Int w -> (p, w)
              | _ -> Alcotest.fail "cell fields")
            | _ -> Alcotest.fail "cell")
          cells
      | _ -> Alcotest.fail "cells")
    | _ -> Alcotest.fail "heatmap json"
  in
  Alcotest.(check (list (pair int int)))
    "writes per page" (List.sort compare (List.map (fun p -> (p, 6)) pages)) writes

let test_heatmap_renders () =
  let hm = Heatmap.create ~page_bits:12 () in
  Heatmap.record_write hm 0x1000;
  Heatmap.record_write hm 0x5000;
  Heatmap.record_check hm 0x1000;
  Heatmap.record_hit hm 0x5008;
  Heatmap.mark_monitored hm ~lo:0x5000 ~hi:0x5fff;
  let text = Heatmap.to_text hm in
  let ppm = Heatmap.to_ppm hm in
  let json = Heatmap.to_json_string hm in
  check_string "text render deterministic" text (Heatmap.to_text hm);
  check_string "ppm render deterministic" ppm (Heatmap.to_ppm hm);
  check_string "json render deterministic" json (Heatmap.to_json_string hm);
  check_bool "ppm is plain P3" true
    (String.length ppm > 3 && String.sub ppm 0 3 = "P3\n");
  check_bool "json carries the schema" true
    (match Export.json_of_string json with
    | Export.Obj fields ->
      List.assoc_opt "schema" fields = Some (Export.Str Heatmap.schema_version)
    | _ -> false);
  check_bool "text mentions the monitored page" true
    (let rec contains i =
       i + 9 <= String.length text
       && (String.sub text i 9 = "monitored" || contains (i + 1))
     in
     contains 0)

(* --- Prometheus exposition lint ----------------------------------------------- *)

(* Structural lint over the exposition text: families are declared with
   a HELP line immediately followed by a TYPE line of a legal type, no
   family is declared twice, every sample line belongs to the family
   declared above it (no interleaving), metric names use the legal
   charset, values parse as integers, and the text ends with a
   newline. *)
let lint_prometheus text =
  check_bool "non-empty" true (text <> "");
  check_bool "ends with newline" true (text.[String.length text - 1] = '\n');
  let legal_name n =
    n <> ""
    && (match n.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
    && String.for_all
         (function
           | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
           | _ -> false)
         n
  in
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> l <> "")
  in
  let declared = Hashtbl.create 16 in
  let current = ref "" in
  let expect_type = ref None in
  List.iter
    (fun line ->
      match !expect_type with
      | Some name ->
        let prefix = "# TYPE " ^ name ^ " " in
        let plen = String.length prefix in
        check_bool
          (Printf.sprintf "HELP for %s is followed by its TYPE" name)
          true
          (String.length line > plen && String.sub line 0 plen = prefix);
        let typ = String.sub line plen (String.length line - plen) in
        check_bool
          (Printf.sprintf "%s has a legal type (%s)" name typ)
          true
          (typ = "counter" || typ = "gauge");
        expect_type := None;
        current := name
      | None ->
        if String.length line > 7 && String.sub line 0 7 = "# HELP " then begin
          let rest = String.sub line 7 (String.length line - 7) in
          let name =
            match String.index_opt rest ' ' with
            | Some i -> String.sub rest 0 i
            | None -> rest
          in
          check_bool ("legal family name " ^ name) true (legal_name name);
          check_bool ("family declared once: " ^ name) false
            (Hashtbl.mem declared name);
          Hashtbl.replace declared name ();
          expect_type := Some name
        end
        else if line.[0] = '#' then
          (* Plain comments are legal anywhere; a TYPE line is only
             legal immediately after its HELP (handled above). *)
          check_bool ("no orphan TYPE: " ^ line) false
            (String.length line > 7 && String.sub line 0 7 = "# TYPE ")
        else begin
          let name =
            match (String.index_opt line '{', String.index_opt line ' ') with
            | Some i, Some j -> String.sub line 0 (min i j)
            | Some i, None -> String.sub line 0 i
            | None, Some j -> String.sub line 0 j
            | None, None -> line
          in
          check_string ("sample under its own family: " ^ line) !current name;
          match String.rindex_opt line ' ' with
          | None -> Alcotest.failf "sample line has no value: %s" line
          | Some i ->
            let v = String.sub line (i + 1) (String.length line - i - 1) in
            check_bool ("integer value: " ^ line) true
              (match int_of_string_opt v with Some _ -> true | None -> false)
        end)
    lines;
  check_bool "trailing HELP has its TYPE" true (!expect_type = None)

let test_prometheus_lint_session () =
  let session = run_sampled loop_src in
  let rep = Session.report session in
  let text = Export.to_prometheus rep in
  lint_prometheus text;
  (* Spot-check the families a dashboard keys on, old and new. *)
  List.iter
    (fun family ->
      let needle = "\n# HELP " ^ family ^ " " in
      let rec contains i =
        i + String.length needle <= String.length text
        && (String.sub text i (String.length needle) = needle
           || contains (i + 1))
      in
      check_bool ("family present: " ^ family) true (contains 0))
    [
      "dbp_check_execs"; "dbp_user_hits"; "dbp_store_execs";
      "dbp_samples_taken"; "dbp_timeseries_interval_instrs";
      "dbp_timeseries_samples_retained"; "dbp_timeseries_last";
    ]

let test_prometheus_lint_synthetic () =
  (* A report with every section non-trivial, including sites whose
     names become labels. *)
  let t = Telemetry.create ~ring_capacity:2 () in
  Telemetry.set_tag t "strategy" "cache";
  Telemetry.incr t Telemetry.User_hits;
  Telemetry.incr_typed t Telemetry.Cache_misses_by_type 2;
  Telemetry.alloc_sites t
    [| (0, Telemetry.site_kind_checked); (1, Telemetry.site_kind_sym) |];
  Telemetry.alloc_read_sites t [| 2 |];
  Telemetry.bump_site t 0;
  Telemetry.bump_site_hit t 0;
  Telemetry.bump_read_site t 0;
  Telemetry.set_sample_capacity t 4;
  Telemetry.set_sample_meta t ~every:10 ~metrics:[ "m" ];
  Telemetry.record_sample t { Telemetry.s_insn = 10; s_values = [ ("m", 1) ] };
  lint_prometheus (Export.to_prometheus (Telemetry.report t))

(* --- scrape endpoint ----------------------------------------------------------- *)

(* Drive the server in-process: connect, queue a request, let [poll]
   answer it, read the response off the socket.  Single-threaded —
   exactly how the dispatch-loop hook drives it in dbreak. *)
let http_get srv request =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with _ -> ())
    (fun () ->
      Unix.connect sock
        (Unix.ADDR_INET (Unix.inet_addr_loopback, Scrape.port srv));
      ignore (Unix.write_substring sock request 0 (String.length request));
      let handled = Scrape.poll srv in
      check_int "poll answered the pending request" 1 handled;
      (* The response may take more than one pass to write: keep
         polling until the endpoint half-closes. *)
      Unix.set_nonblock sock;
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read sock chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | k ->
          Buffer.add_subbytes buf chunk 0 k;
          drain ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ignore (Unix.select [ sock ] [] [] 0.05);
          ignore (Scrape.poll srv);
          drain ()
        | exception Unix.Unix_error _ -> ()
      in
      drain ();
      Buffer.contents buf)

let has_substring hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let test_scrape_endpoint () =
  let session = run_sampled loop_src in
  let srv =
    Scrape.create ~port:0
      ~metrics:(fun () -> Export.to_prometheus (Session.report session))
      ()
  in
  Fun.protect
    ~finally:(fun () -> Scrape.close srv)
    (fun () ->
      check_bool "ephemeral port assigned" true (Scrape.port srv > 0);
      check_int "idle poll answers nothing" 0 (Scrape.poll srv);
      let resp = http_get srv "GET /metrics HTTP/1.0\r\n\r\n" in
      check_bool "200" true (has_substring resp "HTTP/1.0 200 OK");
      check_bool "exposition content type" true
        (has_substring resp "text/plain; version=0.0.4");
      check_bool "serves the live counters" true
        (has_substring resp "dbp_user_hits");
      check_bool "serves the time-series gauges" true
        (has_substring resp "dbp_timeseries_interval_instrs");
      (* The body itself must pass the exposition lint. *)
      (match String.index_opt resp '\r' with
      | None -> Alcotest.fail "no status line"
      | Some _ ->
        let marker = "\r\n\r\n" in
        let rec find i =
          if i + 4 > String.length resp then None
          else if String.sub resp i 4 = marker then Some (i + 4)
          else find (i + 1)
        in
        (match find 0 with
        | Some body_at ->
          lint_prometheus
            (String.sub resp body_at (String.length resp - body_at))
        | None -> Alcotest.fail "no header/body separator"));
      check_bool "unknown path is 404" true
        (has_substring
           (http_get srv "GET /nope HTTP/1.0\r\n\r\n")
           "HTTP/1.0 404 Not Found");
      check_bool "index lists the endpoint" true
        (has_substring (http_get srv "GET / HTTP/1.0\r\n\r\n") "/metrics");
      check_bool "malformed request is 400" true
        (has_substring (http_get srv "BOGUS\r\n\r\n") "HTTP/1.0 400"));
  (* Close is idempotent and polls become no-ops. *)
  Scrape.close srv;
  check_int "poll after close" 0 (Scrape.poll srv)

let suites =
  [
    ( "timeseries.sampler",
      [
        Alcotest.test_case "ring conserves end-of-run counters" `Quick
          test_conservation;
        Alcotest.test_case "replay pauses sampler and heatmap" `Quick
          test_replay_pauses_observers;
        Alcotest.test_case "no added work when off" `Quick test_stats_parity;
        Alcotest.test_case "bad intervals rejected" `Quick
          test_bad_intervals_rejected;
      ] );
    ( "timeseries.windows",
      [
        Alcotest.test_case "windowed peaks and totals" `Quick
          test_summarize_windows;
        Alcotest.test_case "empty report" `Quick test_summarize_empty;
        Alcotest.test_case "dbp-timeseries/1 document" `Quick
          test_timeseries_json;
      ] );
    ( "timeseries.export",
      [
        Alcotest.test_case "v5 round-trip and reject" `Quick test_v5_round_trip;
        Alcotest.test_case "sample merge: concat then sort" `Quick
          test_merge_samples;
      ] );
    ( "timeseries.heatmap",
      [
        Alcotest.test_case "page accounting" `Quick test_heatmap_pages;
        Alcotest.test_case "lookup slot conflicts" `Quick test_heatmap_slot_conflicts;
        Alcotest.test_case "renders deterministic" `Quick test_heatmap_renders;
      ] );
    ( "timeseries.prometheus",
      [
        Alcotest.test_case "session exposition lints" `Quick
          test_prometheus_lint_session;
        Alcotest.test_case "synthetic exposition lints" `Quick
          test_prometheus_lint_synthetic;
      ] );
    ( "timeseries.scrape",
      [
        Alcotest.test_case "GET /metrics end to end" `Quick
          test_scrape_endpoint;
      ] );
  ]
