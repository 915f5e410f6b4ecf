(* Report rendering: text, JSON, Prometheus.  The JSON printer/parser
   is deliberately tiny — just the subset the telemetry schema needs —
   so the library stays dependency-free. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | List of json list
  | Obj of (string * json) list

exception Parse_error of string

(* --- printing ----------------------------------------------------------------- *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_to_string ?(indent = 0) v =
  let b = Buffer.create 256 in
  let pad depth =
    if indent > 0 then begin
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make (depth * indent) ' ')
    end
  in
  let rec go depth = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Int n -> Buffer.add_string b (string_of_int n)
    | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
    | List [] -> Buffer.add_string b "[]"
    | List xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          pad (depth + 1);
          go (depth + 1) x)
        xs;
      pad depth;
      Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char b ',';
          pad (depth + 1);
          Buffer.add_char b '"';
          Buffer.add_string b (escape k);
          Buffer.add_string b (if indent > 0 then "\": " else "\":");
          go (depth + 1) x)
        kvs;
      pad depth;
      Buffer.add_char b '}'
  in
  go 0 v;
  Buffer.contents b

(* --- parsing ------------------------------------------------------------------ *)

let json_of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape"
           else
             match s.[!pos] with
             | '"' -> Buffer.add_char b '"'; advance ()
             | '\\' -> Buffer.add_char b '\\'; advance ()
             | '/' -> Buffer.add_char b '/'; advance ()
             | 'n' -> Buffer.add_char b '\n'; advance ()
             | 't' -> Buffer.add_char b '\t'; advance ()
             | 'r' -> Buffer.add_char b '\r'; advance ()
             | 'b' -> Buffer.add_char b '\b'; advance ()
             | 'f' -> Buffer.add_char b '\012'; advance ()
             | 'u' ->
               advance ();
               if !pos + 4 > n then fail "truncated \\u escape";
               let hex = String.sub s !pos 4 in
               (match int_of_string_opt ("0x" ^ hex) with
               | Some code when code < 0x80 -> Buffer.add_char b (Char.chr code)
               | Some _ -> fail "non-ASCII \\u escape unsupported"
               | None -> fail "bad \\u escape");
               pos := !pos + 4
             | c -> fail (Printf.sprintf "bad escape \\%c" c));
          go ()
        | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_int () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let rec digits () =
      match peek () with
      | Some ('0' .. '9') ->
        advance ();
        digits ()
      | _ -> ()
    in
    digits ();
    if !pos = start then fail "expected number";
    match int_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> Int v
    | None -> fail "bad integer"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> Str (parse_string ())
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elems (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected , or ]"
        in
        List (elems [])
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let member () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let rec members acc =
          let kv = member () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members (kv :: acc)
          | Some '}' ->
            advance ();
            List.rev (kv :: acc)
          | _ -> fail "expected , or }"
        in
        Obj (members [])
      end
    | Some ('-' | '0' .. '9') -> parse_int ()
    | Some c -> fail (Printf.sprintf "unexpected %c" c)
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* --- report -> json ----------------------------------------------------------- *)

open Telemetry

let access_name = function Write -> "write" | Read -> "read"

let event_to_json (e : event) =
  Obj
    [
      ("pc", Int e.ev_pc);
      ("addr", Int e.ev_addr);
      ("region_lo", Int e.ev_region_lo);
      ("region_hi", Int e.ev_region_hi);
      ("region_kind", Str e.ev_region_kind);
      ("access", Str (access_name e.ev_access));
      ("write_type", Str e.ev_write_type);
      ("insn", Int e.ev_insn);
    ]

let sample_to_json (s : sample) =
  Obj
    [
      ("insn", Int s.s_insn);
      ("values", Obj (List.map (fun (k, v) -> (k, Int v)) s.s_values));
    ]

let site_to_json (s : site_report) =
  Obj
    [
      ("site", Int s.sr_site);
      ("write_type", Str s.sr_write_type);
      ("kind", Str s.sr_kind);
      ("exec", Int s.sr_exec);
      ("hits", Int s.sr_hits);
      ("patched", Int s.sr_patched);
    ]

let to_json (r : report) =
  Obj
    [
      ("schema", Str r.r_schema);
      ("tags", Obj (List.map (fun (k, v) -> (k, Str v)) r.r_tags));
      ("counters", Obj (List.map (fun (k, v) -> (k, Int v)) r.r_counters));
      ( "by_write_type",
        Obj
          (List.map
             (fun (k, cells) ->
               (k, Obj (List.map (fun (wt, v) -> (wt, Int v)) cells)))
             r.r_typed) );
      ("sites", List (List.map site_to_json r.r_sites));
      ("read_sites", List (List.map site_to_json r.r_read_sites));
      ("events", List (List.map event_to_json r.r_events));
      ("events_dropped", Int r.r_events_dropped);
      ("sample_every", Int r.r_sample_every);
      ("sample_metrics", List (List.map (fun m -> Str m) r.r_sample_metrics));
      ("samples", List (List.map sample_to_json r.r_samples));
      ("samples_dropped", Int r.r_samples_dropped);
    ]

let to_json_string ?indent r = json_to_string ?indent (to_json r)

(* --- prometheus ---------------------------------------------------------------- *)

(* Metric and label names: [a-zA-Z0-9_] with letters first; everything
   else maps to '_'. *)
let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

let label_string labels =
  match labels with
  | [] -> ""
  | _ ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" (sanitize k) (escape v)) labels)
    ^ "}"

(* Exposition-format families: every family is announced by one HELP
   and one TYPE line and emits all its samples contiguously (the format
   forbids interleaving samples of different families).  Scalar report
   counters that are point-in-time snapshots rather than monotonic
   totals are typed as gauges. *)
let prometheus_gauges =
  [
    "seg_words_monitored"; "seg_arena_bytes"; "sites_total"; "sites_checked";
    "sites_sym_eliminated"; "sites_loop_eliminated";
  ]

let to_prometheus (r : report) =
  let b = Buffer.create 4096 in
  let family name ~help ~typ samples =
    if samples <> [] then begin
      let name = "dbp_" ^ sanitize name in
      Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name help);
      Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name typ);
      List.iter
        (fun (labels, v) ->
          Buffer.add_string b
            (Printf.sprintf "%s%s %d\n" name
               (label_string (r.r_tags @ labels))
               v))
        samples
    end
  in
  Buffer.add_string b (Printf.sprintf "# dbp telemetry %s\n" r.r_schema);
  List.iter
    (fun (k, v) ->
      let typ =
        if List.mem k prometheus_gauges then "gauge" else "counter"
      in
      family k ~help:(Printf.sprintf "Telemetry counter %s." k) ~typ
        [ ([], v) ])
    r.r_counters;
  List.iter
    (fun (k, cells) ->
      family k
        ~help:(Printf.sprintf "Telemetry counter %s keyed by write type." k)
        ~typ:"counter"
        (List.map (fun (wt, v) -> ([ ("write_type", wt) ], v)) cells))
    r.r_typed;
  let site_families prefix what (sites : site_report list) =
    let labels (s : site_report) =
      [
        ("site", string_of_int s.sr_site);
        ("write_type", s.sr_write_type);
        ("kind", s.sr_kind);
      ]
    in
    family (prefix ^ "_exec")
      ~help:(Printf.sprintf "Check executions per %s site." what)
      ~typ:"counter"
      (List.map (fun s -> (labels s, s.sr_exec)) sites);
    family (prefix ^ "_hits")
      ~help:(Printf.sprintf "Monitored-region hits per %s site." what)
      ~typ:"counter"
      (List.map (fun s -> (labels s, s.sr_hits)) sites);
    family (prefix ^ "_patched")
      ~help:
        (Printf.sprintf "Kessler-patched check executions per %s site." what)
      ~typ:"counter"
      (List.filter_map
         (fun (s : site_report) ->
           if s.sr_patched > 0 then Some (labels s, s.sr_patched) else None)
         sites)
  in
  site_families "site" "write" r.r_sites;
  site_families "read_site" "read" r.r_read_sites;
  family "trace_events_retained"
    ~help:"Hit-trace events retained in the ring buffer." ~typ:"gauge"
    [ ([], List.length r.r_events) ];
  family "trace_events_dropped"
    ~help:"Hit-trace events dropped by the ring buffer." ~typ:"counter"
    [ ([], r.r_events_dropped) ];
  (* Time-series sampler families (v5). *)
  family "timeseries_interval_instrs"
    ~help:"Instructions between time-series samples (0 when off)."
    ~typ:"gauge"
    [ ([], r.r_sample_every) ];
  family "timeseries_samples_retained"
    ~help:"Time-series samples retained in the sample ring." ~typ:"gauge"
    [ ([], List.length r.r_samples) ];
  family "timeseries_samples_dropped"
    ~help:"Time-series samples dropped by the sample ring." ~typ:"counter"
    [ ([], r.r_samples_dropped) ];
  (match List.rev r.r_samples with
  | [] -> ()
  | last :: _ ->
    family "timeseries_last"
      ~help:"Most recent time-series sample, one series per metric."
      ~typ:"gauge"
      (([ ("metric", "insn") ], last.s_insn)
      :: List.map (fun (m, v) -> ([ ("metric", m) ], v)) last.s_values));
  Buffer.contents b

(* --- human text ----------------------------------------------------------------- *)

let to_text (r : report) =
  let b = Buffer.create 1024 in
  let p fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  p "telemetry (%s)\n" r.r_schema;
  if r.r_tags <> [] then
    p "  tags: %s\n"
      (String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) r.r_tags));
  p "  counters:\n";
  List.iter
    (fun (k, v) -> if v <> 0 then p "    %-26s %12d\n" k v)
    r.r_counters;
  let typed_nonzero =
    List.filter (fun (_, cells) -> List.exists (fun (_, v) -> v <> 0) cells) r.r_typed
  in
  if typed_nonzero <> [] then begin
    p "  by write type:\n";
    List.iter
      (fun (k, cells) ->
        p "    %-26s %s\n" k
          (String.concat " "
             (List.map (fun (wt, v) -> Printf.sprintf "%s=%d" wt v) cells)))
      typed_nonzero
  end;
  let hot =
    List.filter (fun (s : site_report) -> s.sr_hits > 0) r.r_sites
  in
  if hot <> [] then begin
    p "  sites with hits:\n";
    List.iter
      (fun (s : site_report) ->
        p "    site %-4d %-8s %-8s exec=%-10d hits=%d\n" s.sr_site
          s.sr_write_type s.sr_kind s.sr_exec s.sr_hits)
      hot
  end;
  if r.r_samples <> [] || r.r_samples_dropped > 0 then begin
    p "  samples (%d retained, %d dropped, every %d instrs):\n"
      (List.length r.r_samples) r.r_samples_dropped r.r_sample_every;
    match List.rev r.r_samples with
    | [] -> ()
    | last :: _ ->
      p "    last @ insn %d: %s\n" last.s_insn
        (String.concat " "
           (List.map (fun (m, v) -> Printf.sprintf "%s=%d" m v) last.s_values))
  end;
  if r.r_events <> [] || r.r_events_dropped > 0 then begin
    p "  trace (%d retained, %d dropped):\n" (List.length r.r_events)
      r.r_events_dropped;
    List.iter
      (fun (e : event) ->
        p "    insn %-10d %s 0x%08x pc 0x%x %s region [0x%x,0x%x] %s\n"
          e.ev_insn
          (match e.ev_access with Write -> "W" | Read -> "R")
          e.ev_addr e.ev_pc e.ev_region_kind e.ev_region_lo e.ev_region_hi
          e.ev_write_type)
      r.r_events
  end;
  Buffer.contents b
