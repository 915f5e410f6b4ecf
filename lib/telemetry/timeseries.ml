(* In-run time-series sampling over the telemetry registry.  The
   sampler itself is a closure handed to the interpreter's dispatch
   hook; everything here is bookkeeping around it: reading the metric
   set, pushing samples into the registry's ring, accumulating
   wall-clock counter tracks for the Chrome trace, and rendering the
   windowed-rate summaries.  Nothing wall-clock-dependent ever enters a
   {!Telemetry.report} — samples carry instruction counts only, so
   merged exports stay byte-identical across worker scheduling. *)

type metric = {
  m_name : string;
  m_read : unit -> int;
}

type t = {
  registry : Telemetry.t;
  metrics : metric list;
  clock : unit -> float;
  mutable chrome : (string * float * int) list;  (* reversed *)
  mutable last_insn : int;
}

let default_window = 100_000

let create ?(clock = fun () -> 0.) ~every ~registry ~metrics () =
  if every < 1 then invalid_arg "Timeseries.create: every must be >= 1";
  Telemetry.set_sample_capacity registry 4096;
  Telemetry.set_sample_meta registry ~every
    ~metrics:(List.map (fun m -> m.m_name) metrics);
  { registry; metrics; clock; chrome = []; last_insn = -1 }

(* One snapshot.  Monotonic guard: [Session.report] finalizes on every
   call, so only strictly newer instruction counts produce a sample. *)
let sample t ~insn =
  if insn > t.last_insn then begin
    t.last_insn <- insn;
    let values = List.map (fun m -> (m.m_name, m.m_read ())) t.metrics in
    Telemetry.record_sample t.registry { Telemetry.s_insn = insn; s_values = values };
    let now = t.clock () in
    t.chrome <-
      List.fold_left
        (fun acc (name, v) -> ("ts:" ^ name, now, v) :: acc)
        t.chrome values
  end

let finalize t ~insn = sample t ~insn

let chrome_counters t = List.rev t.chrome

(* --- windowed rate summaries -------------------------------------------------- *)

type summary = {
  ws_metric : string;
  ws_window : int;
  ws_windows : int;
  ws_total : int;
  ws_peak : int;
  ws_peak_window : int;
}

let summarize ?(window = default_window) (r : Telemetry.report) =
  if window < 1 then invalid_arg "Timeseries.summarize: window must be >= 1";
  let samples =
    List.sort
      (fun (a : Telemetry.sample) b -> compare a.s_insn b.s_insn)
      r.Telemetry.r_samples
  in
  match samples with
  | [] -> []
  | _ ->
    let max_insn =
      List.fold_left (fun acc (s : Telemetry.sample) -> max acc s.s_insn) 0 samples
    in
    let nwin = (max_insn / window) + 1 in
    let metric_names =
      if r.Telemetry.r_sample_metrics <> [] then r.Telemetry.r_sample_metrics
      else
        match samples with
        | s :: _ -> List.map fst s.Telemetry.s_values
        | [] -> []
    in
    List.map
      (fun name ->
        (* Boundary value of each window = the last sample that falls
           inside it, carried forward over empty windows. *)
        let bounds = Array.make nwin 0 in
        let seen = Array.make nwin false in
        List.iter
          (fun (s : Telemetry.sample) ->
            match List.assoc_opt name s.s_values with
            | None -> ()
            | Some v ->
              let w = s.s_insn / window in
              if w >= 0 && w < nwin then begin
                bounds.(w) <- v;
                seen.(w) <- true
              end)
          samples;
        let prev = ref 0 in
        for w = 0 to nwin - 1 do
          if not seen.(w) then bounds.(w) <- !prev else prev := bounds.(w)
        done;
        let total = bounds.(nwin - 1) in
        let peak = ref 0 and peak_w = ref 0 in
        let prev = ref 0 in
        Array.iteri
          (fun w v ->
            let d = v - !prev in
            prev := v;
            if d > !peak then begin
              peak := d;
              peak_w := w
            end)
          bounds;
        {
          ws_metric = name;
          ws_window = window;
          ws_windows = nwin;
          ws_total = total;
          ws_peak = !peak;
          ws_peak_window = !peak_w;
        })
      metric_names

(* --- dbp-timeseries/1 JSON ----------------------------------------------------- *)

let schema_version = "dbp-timeseries/1"

let to_json ?window (r : Telemetry.report) =
  let summaries = summarize ?window r in
  let win =
    match window with Some w -> w | None -> default_window
  in
  Export.Obj
    [
      ("schema", Export.Str schema_version);
      ("sample_every", Export.Int r.Telemetry.r_sample_every);
      ( "metrics",
        Export.List
          (List.map (fun m -> Export.Str m) r.Telemetry.r_sample_metrics) );
      ( "samples",
        Export.List
          (List.map
             (fun (s : Telemetry.sample) ->
               Export.Obj
                 [
                   ("insn", Export.Int s.s_insn);
                   ( "values",
                     Export.Obj
                       (List.map (fun (k, v) -> (k, Export.Int v)) s.s_values)
                   );
                 ])
             r.Telemetry.r_samples) );
      ("samples_dropped", Export.Int r.Telemetry.r_samples_dropped);
      ("window_instrs", Export.Int win);
      ( "windows",
        Export.List
          (List.map
             (fun s ->
               Export.Obj
                 [
                   ("metric", Export.Str s.ws_metric);
                   ("windows", Export.Int s.ws_windows);
                   ("total", Export.Int s.ws_total);
                   ("peak", Export.Int s.ws_peak);
                   ("peak_window", Export.Int s.ws_peak_window);
                 ])
             summaries) );
    ]

let to_json_string ?window r = Export.json_to_string ~indent:1 (to_json ?window r)

let summary_text ?window (r : Telemetry.report) =
  let b = Buffer.create 256 in
  let p fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let summaries = summarize ?window r in
  List.iter
    (fun s ->
      p "  %-20s total=%-10d peak/window=%-8d (window %d) windows=%d\n"
        s.ws_metric s.ws_total s.ws_peak s.ws_peak_window s.ws_windows)
    summaries;
  Buffer.contents b
