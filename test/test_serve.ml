(* The service layer: dbp-wire/1 codec round-trips and decoder
   totality, the connection core's framing and caps, the shard
   scheduler's ordering/merge guarantees, the daemon engine's
   transcript and telemetry determinism across shard counts, peer
   resets, disconnects and unread backlogs on the wire, and the scrape
   endpoint's malformed-request hardening and deadlines. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- proto: escaping ---------------------------------------------------- *)

let test_escape_edges () =
  check_string "empty is %z" "%z" (Proto.escape "");
  check_string "unescape %z" "" (Result.get_ok (Proto.unescape "%z"));
  check_string "plain survives" "abc_123" (Proto.escape "abc_123");
  check_string "space escaped" "a%20b" (Proto.escape "a b");
  check_string "percent escaped" "100%25" (Proto.escape "100%");
  check_string "newline escaped" "l1%0Al2" (Proto.escape "l1\nl2");
  check_bool "no spaces in any escape" true
    (String.for_all (fun c -> c <> ' ')
       (Proto.escape "a b\tc\nd\re\x7f\xff %"));
  List.iter
    (fun bad ->
      check_bool
        (Printf.sprintf "unescape rejects %S" bad)
        true
        (Result.is_error (Proto.unescape bad)))
    [ "%"; "%2"; "%2g"; "%g2"; "trail%"; "a%zz" ]

let gen_bytes =
  QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (0 -- 40))

let prop_escape_roundtrip =
  QCheck.Test.make ~name:"escape/unescape round-trips any byte string"
    ~count:500
    (QCheck.make ~print:String.escaped gen_bytes)
    (fun s -> Proto.unescape (Proto.escape s) = Ok s)

(* --- proto: command/reply round-trips ----------------------------------- *)

let gen_command =
  let open QCheck.Gen in
  let str = gen_bytes in
  let sid = map (fun s -> "s" ^ s) str in
  oneof
    [
      return Proto.Hello;
      (let* sid = sid and* body = str and* strategy = str and* opt = str in
       let* source =
         oneof
           [
             return (Proto.Workload body); return (Proto.Program body);
           ]
       in
       return (Proto.Open { sid; source; strategy; opt }));
      (let* sid = sid and* v = str in
       return (Proto.Arm { sid; target = Proto.Var v }));
      (let* sid = sid and* lo = nat and* len = nat in
       return (Proto.Arm { sid; target = Proto.Region { lo; len } }));
      (let* sid = sid and* name = str in
       return (Proto.Disarm { sid; name }));
      (let* sid = sid and* fuel = int_range (-5) 1_000_000 in
       return (Proto.Run { sid; fuel }));
      (let* sid = sid and* target = str in
       return (Proto.Query_last_write { sid; target }));
      (let* sid = sid and* target = str and* len = nat in
       return (Proto.Query_history { sid; target; len }));
      (let* sid = sid and* insn = nat in
       return (Proto.Travel { sid; insn }));
      map (fun sid -> Proto.Report { sid }) sid;
      map (fun sid -> Proto.Verify { sid }) sid;
      map (fun sid -> Proto.Close { sid }) sid;
    ]

let prop_command_roundtrip =
  QCheck.Test.make ~name:"every command constructor round-trips the wire"
    ~count:1000
    (QCheck.make
       ~print:(fun c -> Proto.encode_command c)
       gen_command)
    (fun c -> Proto.decode_command (Proto.encode_command c) = Ok c)

let gen_reply =
  let open QCheck.Gen in
  let str = gen_bytes in
  let* r_sid = map (fun s -> "s" ^ s) str in
  let* r_seq = nat in
  let* r_body =
    oneof
      [
        return Proto.Hello_ok;
        (let* name = str and* strategy = str and* opt = str in
         return (Proto.Opened { name; strategy; opt }));
        (let* name = str and* lo = nat and* len = nat in
         return (Proto.Armed { name; lo; len }));
        map (fun name -> Proto.Disarmed { name }) str;
        map (fun executed -> Proto.Running { executed }) nat;
        (let* code = int_range (-255) 255 and* executed = nat
         and* output = str in
         return (Proto.Exited { code; executed; output }));
        (let* name = str and* insn = nat and* pc = nat and* addr = nat
         and* value = int_range (-1000) 1000 and* func = str in
         return (Proto.Hit { name; insn; pc; addr; value; func }));
        (let* target = str and* addr = nat and* insn = nat and* pc = nat
         and* old_v = int_range (-1000) 1000
         and* new_v = int_range (-1000) 1000 and* wtype = str
         and* func = str in
         return
           (Proto.Last_write
              { target; addr; insn; pc; old_v; new_v; wtype; func }));
        (let* target = str and* addr = nat in
         return (Proto.Never_written { target; addr }));
        map (fun count -> Proto.History { count }) nat;
        (let* insn = nat and* pc = nat and* addr = nat
         and* old_v = int_range (-1000) 1000
         and* new_v = int_range (-1000) 1000 and* wtype = str in
         return (Proto.Write { insn; pc; addr; old_v; new_v; wtype }));
        (let* insn = nat and* reexecuted = nat and* pc = nat in
         return (Proto.Traveled { insn; reexecuted; pc }));
        map (fun j -> Proto.Report_json j) str;
        (let* total = nat and* proved = nat and* refuted = nat
         and* unknown = nat in
         return (Proto.Verified { total; proved; refuted; unknown }));
        return Proto.Closed;
        map (fun m -> Proto.Error m) str;
      ]
  in
  return { Proto.r_sid; r_seq; r_body }

let prop_reply_roundtrip =
  QCheck.Test.make ~name:"every reply constructor round-trips the wire"
    ~count:1000
    (QCheck.make ~print:Proto.encode_reply gen_reply)
    (fun r -> Proto.decode_reply (Proto.encode_reply r) = Ok r)

let test_malformed_frames () =
  List.iter
    (fun frame ->
      check_bool
        (Printf.sprintf "command rejected: %S" frame)
        true
        (Result.is_error (Proto.decode_command frame)))
    [
      "";
      "bogus";
      "hello extra";
      "open s1";                          (* arity *)
      "open s1 tarball src strat opt";    (* bad source kind *)
      "open s1 program %2g strat opt";    (* bad escape *)
      "arm s1 var";                       (* arity *)
      "arm s1 blob a b";                  (* bad target kind *)
      "arm s1 region 10 xyz";             (* bad integer *)
      "run s1 12-3";                      (* embedded dash *)
      "run s1 -";                         (* bare dash *)
      "query s1 last-write";              (* arity *)
      "query s1 nonsense t";              (* bad query kind *)
      "travel s1 1 2";                    (* arity *)
    ];
  List.iter
    (fun frame ->
      check_bool
        (Printf.sprintf "reply rejected: %S" frame)
        true
        (Result.is_error (Proto.decode_reply frame)))
    [ ""; "s1"; "s1 x opened a b c"; "s1 1 nonsense"; "s1 1 armed a b" ]

(* Decoders are total: any frame is [Ok] or [Error], never an
   exception.  Token soup — the tokens of a real command and reply
   (keywords, escapes, numerals), reshuffled with a few malformed
   ones — reaches far deeper into the parsers than random bytes. *)
let gen_token_frame =
  let open QCheck.Gen in
  let malformed = [ "%"; "%2"; "%2g"; "-"; "12-3"; "99999999999999999999999" ] in
  let tokens c r =
    String.split_on_char ' ' (Proto.encode_command c ^ " " ^ Proto.encode_reply r)
    @ malformed
  in
  map2 tokens gen_command gen_reply >>= fun pool ->
  map (String.concat " ") (list_size (0 -- 9) (oneofl pool))

let prop_decoders_total =
  let total decode frame =
    match decode frame with Ok _ | Error _ -> true | exception _ -> false
  in
  QCheck.Test.make ~name:"decoders never raise on arbitrary frames"
    ~count:3000
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(frequency [ (1, gen_bytes); (3, gen_token_frame) ]))
    (fun frame ->
      total Proto.decode_command frame && total Proto.decode_reply frame)

(* --- edge: the pure connection core -------------------------------------- *)

(* A random input stream: frames without CR or LF, each ended by LF or
   CR LF, with blank lines between; then the cuts it arrives in, and
   the sizes the socket takes of each write. *)
let gen_edge_case =
  let open QCheck.Gen in
  let text = string_size ~gen:(oneofl [ 'a'; 'b'; ' '; '%'; '\t' ]) (0 -- 12) in
  let line = map2 ( ^ ) text (oneofl [ "\n"; "\r\n" ]) in
  let* stream = map (String.concat "") (list_size (0 -- 30) line) in
  let* cuts = list_size (return 40) (1 -- 16) in
  let* replies = list_size (0 -- 20) text in
  let* writes = list_size (return 80) (0 -- 20) in
  return (stream, cuts, replies, writes)

(* Feed [stream] to a fresh edge in pieces of the [cuts] sizes (the
   last one repeated), collecting its frames. *)
let edge_frames framing stream cuts =
  let e = Edge.create framing ~in_cap:max_int ~out_cap:max_int in
  let frames = ref [] in
  let rec go pos cuts =
    if pos < String.length stream then begin
      let k, rest = match cuts with [ k ] -> (k, [ k ]) | k :: r -> (k, r) | [] -> (1, []) in
      let k = min k (String.length stream - pos) in
      ignore (Edge.feed e (Bytes.of_string (String.sub stream pos k)) k (fun f -> frames := f :: !frames));
      go (pos + k) rest
    end
  in
  go 0 cuts;
  List.rev !frames

(* The same frames cut from the whole stream at once. *)
let split_lines stream =
  List.filter_map
    (fun l ->
      let l = if String.ends_with ~suffix:"\r" l then String.sub l 0 (String.length l - 1) else l in
      if l = "" then None else Some l)
    (List.rev (List.tl (List.rev (String.split_on_char '\n' stream))))

let split_heads stream =
  let rec go head acc = function
    | [] | [ _ ] -> List.rev acc
    | l :: rest ->
      if l = "" || l = "\r" then go "" (head :: acc) rest else go (head ^ l ^ "\n") acc rest
  in
  go "" [] (String.split_on_char '\n' stream)

(* Queue the replies one per write attempt and let the socket take the
   [writes] sizes of what is staged; the bytes taken must be the
   replies, in order. *)
let edge_written replies writes =
  let e = Edge.create Edge.Lines ~in_cap:max_int ~out_cap:max_int in
  let out = Buffer.create 256 in
  let chunk = Bytes.create 8 in
  let rec go replies writes =
    (match replies with r :: _ -> Edge.add_line e r | [] -> ());
    let w, writes = match writes with w :: r -> (w, r) | [] -> (max_int, []) in
    let n = Edge.stage e chunk in
    let k = min w n in
    Buffer.add_subbytes out chunk 0 k;
    Edge.sent e k;
    if replies <> [] || Edge.pending e > 0 then
      go (match replies with _ :: r -> r | [] -> []) writes
  in
  go replies writes;
  Buffer.contents out

(* Each cap trips at its bound and not a byte before. *)
let edge_caps_exact stream cuts =
  let cap = String.length stream / 2 in
  let unframed = String.map (fun c -> if c = '\n' then 'x' else c) stream in
  let e = Edge.create Edge.Lines ~in_cap:cap ~out_cap:cap in
  let rec feed pos = function
    | k :: rest when pos < String.length unframed ->
      let k = min k (String.length unframed - pos) in
      let ok = Edge.feed e (Bytes.of_string (String.sub unframed pos k)) k ignore in
      ok = (pos + k <= cap) && ((not ok) || feed (pos + k) rest)
    | _ -> true
  in
  feed 0 cuts
  && begin
       Edge.add e (String.make cap 'y');
       let at_cap = Edge.over e in
       Edge.add e "y";
       (not at_cap) && Edge.over e
     end

let prop_edge_core =
  QCheck.Test.make ~name:"frames, writes and caps match a one-shot split" ~count:300
    (QCheck.make
       ~print:(fun (s, _, r, _) -> Printf.sprintf "%S / %s" s (String.concat "|" r))
       gen_edge_case)
    (fun (stream, cuts, replies, writes) ->
      edge_frames Edge.Lines stream cuts = split_lines stream
      && edge_frames Edge.Head stream cuts = split_heads stream
      && edge_written replies writes = String.concat "" (List.map (fun r -> r ^ "\n") replies)
      && edge_caps_exact stream cuts)

(* --- sched --------------------------------------------------------------- *)

let test_sched_ordering () =
  let sched = Sched.create ~shards:3 () in
  Fun.protect
    ~finally:(fun () -> Sched.shutdown sched)
    (fun () ->
      check_int "shard count" 3 (Sched.shards sched);
      check_int "stable hash" (Sched.shard_of sched "k")
        (Sched.shard_of sched "k");
      (* Same-key jobs run in post order even when they re-post.  A
         gate job holds the worker until all five are queued, so the
         continuation's position is deterministic. *)
      let log = ref [] in
      let mu = Mutex.create () in
      let note x =
        Mutex.lock mu;
        log := x :: !log;
        Mutex.unlock mu
      in
      let gate = Mutex.create () in
      Mutex.lock gate;
      Sched.post sched ~key:"k" (fun () ->
          Mutex.lock gate;
          Mutex.unlock gate);
      for i = 1 to 5 do
        Sched.post sched ~key:"k" (fun () ->
            note i;
            if i = 1 then Sched.post sched ~key:"k" (fun () -> note 100))
      done;
      Mutex.unlock gate;
      Sched.drain sched;
      check_bool "FIFO per key, continuation behind queued work" true
        (List.rev !log = [ 1; 2; 3; 4; 5; 100 ]);
      (* A raising job bumps the backstop counter, shard survives. *)
      Sched.post sched ~key:"k" (fun () -> failwith "boom");
      Sched.post sched ~key:"k" (fun () -> note 7);
      Sched.drain sched;
      check_int "failure counted" 1 (Sched.failures sched);
      check_bool "shard survived the failure" true
        (List.hd !log = 7))

let test_sched_merge_determinism () =
  (* The same per-session contributions produce the same merged report
     whatever the shard count (sessions hash differently, merge is
     commutative). *)
  let merged shards =
    let sched = Sched.create ~shards () in
    Fun.protect
      ~finally:(fun () -> Sched.shutdown sched)
      (fun () ->
        List.iter
          (fun (key, hits) ->
            Sched.post sched ~key (fun () ->
                let sink = Sched.sink sched ~shard:(Sched.shard_of sched key) in
                for _ = 1 to hits do
                  Telemetry.incr sink Telemetry.Hits_streamed
                done;
                Telemetry.incr sink Telemetry.User_hits))
          [ ("a", 3); ("b", 5); ("c", 7); ("d", 11) ];
        Sched.drain sched;
        Export.to_json_string (Sched.merged_report sched))
  in
  let one = merged 1 in
  check_string "merged telemetry independent of shard count" one (merged 4);
  check_string "merged telemetry independent of shard count (j3)" one
    (merged 3)

let test_sched_local_shard () =
  (* With one shard the creating domain is the shard: a posted job runs
     only when its creator calls [run_local] or [drain], and on the
     creator's domain.  No other domain may run shard 0. *)
  let sched = Sched.create ~shards:1 () in
  Fun.protect
    ~finally:(fun () -> Sched.shutdown sched)
    (fun () ->
      let ran_on = ref [] in
      let job () = ran_on := Domain.self () :: !ran_on in
      Sched.post sched ~key:"a" job;
      Sched.post sched ~key:"b" job;
      check_int "posted jobs wait for their creator" 0 (List.length !ran_on);
      check_bool "shard 0 has queued work" true (Sched.local_pending sched);
      check_bool "run_local ran a job" true (Sched.run_local sched);
      check_int "run_local ran exactly one" 1 (List.length !ran_on);
      Sched.drain sched;
      check_int "drain ran the other" 2 (List.length !ran_on);
      check_bool "both ran on the creating domain" true
        (List.for_all (fun d -> d = Domain.self ()) !ran_on);
      check_bool "run_local on an empty queue" false (Sched.run_local sched);
      check_bool "nothing queued" false (Sched.local_pending sched);
      let refused =
        Domain.join
          (Domain.spawn (fun () ->
               match Sched.run_local sched with
               | _ -> false
               | exception Invalid_argument _ -> true))
      in
      check_bool "run_local refused on another domain" true refused)

(* --- daemon engine ------------------------------------------------------- *)

let program = {|
int counter;

int bump(int k) {
  counter = counter + k;
  return counter;
}

int main() {
  int i;
  i = 0;
  while (i < 50) {
    i = bump(1) - counter + i + 1;
  }
  return counter;
}
|}

let script sid =
  [
    Proto.encode_command
      (Proto.Open
         {
           sid;
           source = Proto.Program program;
           strategy = "BitmapInlineRegisters";
           opt = "none";
         });
    Proto.encode_command (Proto.Arm { sid; target = Proto.Var "counter" });
    (* Undersized fuel first: the slice machinery must answer [running]
       and leave the session resumable. *)
    Proto.encode_command (Proto.Run { sid; fuel = 500 });
    Proto.encode_command (Proto.Run { sid; fuel = 100_000_000 });
    Proto.encode_command (Proto.Query_last_write { sid; target = "counter" });
    Proto.encode_command (Proto.Query_history { sid; target = "counter"; len = 4 });
    Proto.encode_command (Proto.Travel { sid; insn = 100 });
    Proto.encode_command (Proto.Report { sid });
    Proto.encode_command (Proto.Verify { sid });
    Proto.encode_command (Proto.Close { sid });
  ]

(* Run the same three-session workload on an engine with [shards]
   domains (tiny slice so [run] needs many quanta) and return each
   session's reply stream plus the merged telemetry JSON. *)
let run_engine shards =
  let t = Daemon.create ~shards ~slice:700 () in
  Fun.protect
    ~finally:(fun () -> Daemon.shutdown t)
    (fun () ->
      let c = Daemon.client t in
      let sids = [ "alpha"; "beta"; "gamma" ] in
      Daemon.submit t c "hello";
      List.iter
        (fun sid -> List.iter (Daemon.submit t c) (script sid))
        sids;
      Daemon.drain t;
      let lines = Daemon.output c in
      let stream_of sid =
        String.concat "\n"
          (List.filter
             (fun l ->
               match Proto.decode_reply l with
               | Ok { Proto.r_sid; _ } -> r_sid = sid
               | Error _ -> false)
             lines)
      in
      let streams = List.map (fun sid -> stream_of sid) ("-" :: sids) in
      check_int "all sessions closed" 0 (Daemon.sessions_open t);
      (streams, Export.to_json_string (Daemon.merged_report t)))

(* A reply's kind, as the transcript tests spell it. *)
let kind = function
  | Proto.Opened _ -> "opened"
  | Proto.Armed _ -> "armed"
  | Proto.Running _ -> "running"
  | Proto.Exited _ -> "exited"
  | Proto.Hit _ -> "hit"
  | Proto.Last_write _ -> "last-write"
  | Proto.History _ -> "history"
  | Proto.Write _ -> "write"
  | Proto.Traveled _ -> "traveled"
  | Proto.Report_json _ -> "report"
  | Proto.Verified _ -> "verified"
  | Proto.Closed -> "closed"
  | Proto.Error _ -> "error"
  | _ -> "?"

let test_engine_transcripts () =
  let streams, _ = run_engine 1 in
  (match streams with
  | [ client_level; alpha; _; _ ] ->
    check_string "hello handshake" "- 1 hello dbp-wire/1" client_level;
    let lines = String.split_on_char '\n' alpha in
    let kinds =
      List.map
        (fun l ->
          match Proto.decode_reply l with
          | Ok { Proto.r_body; _ } -> kind r_body
          | Error _ -> "!")
        lines
    in
    check_string "session opens then arms" "opened,armed"
      (String.concat "," (List.filteri (fun i _ -> i < 2) kinds));
    check_bool "undersized fuel answers running" true
      (List.mem "running" kinds);
    check_bool "hits streamed during run" true (List.mem "hit" kinds);
    check_bool "terminal exited" true (List.mem "exited" kinds);
    check_bool "last-write answered" true (List.mem "last-write" kinds);
    check_bool "history answered" true (List.mem "history" kinds);
    check_bool "travel answered" true (List.mem "traveled" kinds);
    check_bool "verify answered" true (List.mem "verified" kinds);
    check_string "closed last" "closed" (List.nth kinds (List.length kinds - 1));
    (* Sequence numbers are 1..n with no gaps. *)
    List.iteri
      (fun i l ->
        match Proto.decode_reply l with
        | Ok { Proto.r_seq; _ } -> check_int "monotone seq" (i + 1) r_seq
        | Error m -> Alcotest.fail m)
      lines
  | _ -> Alcotest.fail "unexpected stream count")

let test_engine_shard_determinism () =
  (* Same script, different shard counts: every session's transcript
     and the merged telemetry must be byte-identical. *)
  let s1, t1 = run_engine 1 in
  let s3, t3 = run_engine 3 in
  List.iteri
    (fun i (a, b) ->
      check_string (Printf.sprintf "stream %d identical across shards" i) a b)
    (List.combine s1 s3);
  check_string "merged telemetry identical across shards" t1 t3

(* Replay counts nothing, over the wire: at O_full, the session's report
   after a history, a last-write and a travel equals the one taken at
   exit, apart from what the replay engine counts of itself (restores,
   replayed instructions, checkpoints), and no hit streams while a query
   runs. *)
let test_queries_count_nothing () =
  let t = Daemon.create ~shards:1 ~slice:700 () in
  Fun.protect
    ~finally:(fun () -> Daemon.shutdown t)
    (fun () ->
      let c = Daemon.client t in
      let sid = "q" in
      List.iter
        (fun cmd -> Daemon.submit t c (Proto.encode_command cmd))
        [
          Proto.Open
            { sid; source = Proto.Program program; strategy = "BitmapInlineRegisters";
              opt = "full" };
          Proto.Arm { sid; target = Proto.Var "counter" };
          Proto.Run { sid; fuel = 100_000_000 };
          Proto.Report { sid };
          Proto.Query_history { sid; target = "counter"; len = 4 };
          Proto.Query_last_write { sid; target = "counter" };
          Proto.Travel { sid; insn = 100 };
          Proto.Report { sid };
        ];
      Daemon.drain t;
      let bodies =
        List.filter_map
          (fun l ->
            match Proto.decode_reply l with
            | Ok { Proto.r_sid; r_body; _ } when r_sid = sid -> Some r_body
            | _ -> None)
          (Daemon.output c)
      in
      let rec split_at_exit before = function
        | [] -> (List.rev before, [])
        | (Proto.Exited _ as b) :: rest -> (List.rev (b :: before), rest)
        | b :: rest -> split_at_exit (b :: before) rest
      in
      let run, queries = split_at_exit [] bodies in
      check_bool "hits streamed during the run" true (List.mem "hit" (List.map kind run));
      let after = List.map kind queries in
      check_bool "every query answered" true
        (List.for_all (fun k -> List.mem k after) [ "history"; "last-write"; "traveled" ]);
      check_bool "no hit streamed while the queries ran" false (List.mem "hit" after);
      let counters j =
        match Export.json_of_string j with
        | Export.Obj fields -> (
          match List.assoc_opt "counters" fields with
          | Some (Export.Obj cs) ->
            List.filter_map
              (fun (n, v) ->
                match v with
                | Export.Int v
                  when not
                         (List.mem n [ "replayed_instrs"; "restores" ]
                         || String.starts_with ~prefix:"checkpoint" n) ->
                  Some (Printf.sprintf "%s=%d" n v)
                | _ -> None)
              cs
          | _ -> Alcotest.fail "report without counters")
        | _ -> Alcotest.fail "report is not an object"
      in
      match List.filter_map (function Proto.Report_json j -> Some j | _ -> None) queries with
      | [ at_exit; after ] ->
        Alcotest.(check (list string))
          "report after the queries = report at exit" (counters at_exit) (counters after)
      | _ -> Alcotest.fail "expected two reports")

(* A job that escapes every handler is the scheduler's backstop: it is
   counted in the daemon's /metrics body (which must still lint), and
   its shard goes on to run the next job. *)
let test_job_failure_metric () =
  let t = Daemon.create ~shards:2 () in
  Fun.protect
    ~finally:(fun () -> Daemon.shutdown t)
    (fun () ->
      let line body =
        List.find_opt
          (fun l -> String.starts_with ~prefix:"dbreakd_job_failures_total " l)
          (String.split_on_char '\n' body)
      in
      check_bool "zero before any failure" true
        (line (Daemon.metrics_body t) = Some "dbreakd_job_failures_total 0");
      let sched = Daemon.sched t in
      let ran_next = Atomic.make false in
      Sched.post sched ~key:"k" (fun () -> raise Not_found);
      Sched.post sched ~key:"k" (fun () -> Atomic.set ran_next true);
      Daemon.drain t;
      let body = Daemon.metrics_body t in
      check_bool "escaped job counted" true
        (line body = Some "dbreakd_job_failures_total 1");
      Test_timeseries.lint_prometheus body;
      check_bool "shard ran the next job" true (Atomic.get ran_next))

let test_engine_errors_and_gauges () =
  let t = Daemon.create ~shards:2 () in
  Fun.protect
    ~finally:(fun () -> Daemon.shutdown t)
    (fun () ->
      let c = Daemon.client t in
      Daemon.submit t c "run nosuch 5";
      Daemon.submit t c "open - program %z Bitmap none";
      Daemon.submit t c "garbage frame here";
      Daemon.submit t c
        (Proto.encode_command
           (Proto.Open
              {
                sid = "e1";
                source = Proto.Program program;
                strategy = "Bitmap";
                opt = "none";
              }));
      (* Duplicate open and a second client touching e1 both refuse. *)
      Daemon.submit t c
        (Proto.encode_command
           (Proto.Open
              {
                sid = "e1";
                source = Proto.Workload "nope";
                strategy = "Bitmap";
                opt = "none";
              }));
      let c2 = Daemon.client t in
      Daemon.submit t c2 (Proto.encode_command (Proto.Report { sid = "e1" }));
      Daemon.drain t;
      let errors lines =
        List.length
          (List.filter
             (fun l ->
               match Proto.decode_reply l with
               | Ok { Proto.r_body = Proto.Error _; _ } -> true
               | _ -> false)
             lines)
      in
      check_int "unknown session, bad sid, parse error, dup open" 4
        (errors (Daemon.output c));
      check_int "foreign session refused" 1 (errors (Daemon.output c2));
      check_int "one session live" 1 (Daemon.sessions_open t);
      let rep = Daemon.merged_report t in
      let counter name =
        match List.assoc_opt name rep.Telemetry.r_counters with
        | Some v -> v
        | None -> -1
      in
      check_int "sessions_open gauge" 1 (counter "sessions_open");
      (* Six frames submitted, one unparseable: only decoded commands
         are counted. *)
      check_int "commands_served counts every decoded frame" 5
        (counter "commands_served");
      (* Disconnect closes the orphan and its telemetry is absorbed. *)
      Daemon.close_client t c;
      Daemon.drain t;
      check_int "disconnect closed the orphan" 0 (Daemon.sessions_open t);
      let rep = Daemon.merged_report t in
      check_bool "closed session's counters absorbed" true
        (List.assoc "store_execs" rep.Telemetry.r_counters >= 0))

(* A program that writes its one global forever: every loop iteration
   is a hit. *)
let firehose_program = "int g; int main() { while (1) { g = g + 1; } }"

let firehose_frames sid fuel =
  [
    Proto.encode_command
      (Proto.Open
         {
           sid;
           source = Proto.Program firehose_program;
           strategy = "BitmapInlineRegisters";
           opt = "none";
         });
    Proto.encode_command (Proto.Arm { sid; target = Proto.Var "g" });
    Proto.encode_command (Proto.Run { sid; fuel });
  ]

let hits_streamed t =
  List.assoc "hits_streamed" (Daemon.merged_report t).Telemetry.r_counters

(* A client that disconnects mid-run ends its session's work: the
   session closes at its next step instead of running out its fuel
   into an outbox nobody reads. *)
let test_disconnect_ends_run () =
  let t = Daemon.create ~shards:1 () in
  Fun.protect
    ~finally:(fun () -> Daemon.shutdown t)
    (fun () ->
      let c = Daemon.client t in
      List.iter (Daemon.submit t c) (firehose_frames "f1" 30_000_000);
      (* open, arm, then three run slices *)
      for _ = 1 to 5 do
        ignore (Sched.run_local (Daemon.sched t))
      done;
      let per_slice = hits_streamed t / 3 in
      check_bool "the run streams hits" true (per_slice > 0);
      let before = hits_streamed t in
      Daemon.close_client t c;
      Daemon.drain t;
      check_int "session closed" 0 (Daemon.sessions_open t);
      check_bool "under two slices of hits after the close" true
        (hits_streamed t - before < 2 * per_slice))

(* Arming a watch that overlaps one already armed is a user mistake:
   the session answers it with an error reply, in dbreak's words, and
   stays usable; the shard job does not escape. *)
let test_bad_arm_answered () =
  let t = Daemon.create ~shards:2 () in
  Fun.protect
    ~finally:(fun () -> Daemon.shutdown t)
    (fun () ->
      let c = Daemon.client t in
      List.iter (Daemon.submit t c)
        [
          Proto.encode_command
            (Proto.Open
               {
                 sid = "b1";
                 source = Proto.Program program;
                 strategy = "BitmapInlineRegisters";
                 opt = "none";
               });
          Proto.encode_command (Proto.Arm { sid = "b1"; target = Proto.Var "counter" });
          Proto.encode_command (Proto.Arm { sid = "b1"; target = Proto.Var "counter" });
          Proto.encode_command (Proto.Run { sid = "b1"; fuel = 100_000_000 });
        ];
      Daemon.drain t;
      let bodies =
        List.filter_map
          (fun l ->
            match Proto.decode_reply l with
            | Ok { Proto.r_body; _ } -> Some r_body
            | Error _ -> None)
          (Daemon.output c)
      in
      check_bool "second arm answered with an error" true
        (List.mem (Proto.Error "invalid region: regions must not overlap") bodies);
      check_bool "next command answered" true
        (List.exists (function Proto.Exited _ -> true | _ -> false) bodies);
      check_bool "no job escaped" true
        (List.mem "dbreakd_job_failures_total 0"
           (String.split_on_char '\n' (Daemon.metrics_body t))))

(* --- wake-up ------------------------------------------------------------- *)

let read_available fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | k ->
      Buffer.add_subbytes buf chunk 0 k;
      go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  go ();
  Buffer.contents buf

let readable fds =
  let r, _, _ = Unix.select fds [] [] 0.0 in
  r

let test_wake_on_replies () =
  (* A shard that pushes replies makes the server fds readable; one
     poll flushes the replies and consumes the wake.  No timing: the
     engine is drained before each look. *)
  let t = Daemon.create () in
  let srv = Daemon.listen t ~port:0 () in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with _ -> ());
      Daemon.server_close srv;
      Daemon.shutdown t)
    (fun () ->
      Unix.connect sock
        (Unix.ADDR_INET (Unix.inet_addr_loopback, Daemon.server_port srv));
      let frames =
        String.concat ""
          (List.map
             (fun l -> l ^ "\n")
             (List.filteri (fun i _ -> i < 2) (script "w1")))
      in
      ignore (Unix.write_substring sock frames 0 (String.length frames));
      Daemon.server_poll srv;
      check_int "open routed" 1 (Daemon.sessions_open t);
      Daemon.drain t;
      check_bool "wake fd readable once the shard has replied" true
        (readable (Daemon.server_fds srv) <> []);
      Daemon.server_poll srv;
      Unix.set_nonblock sock;
      let kinds =
        List.filter_map
          (fun l ->
            match Proto.decode_reply l with
            | Ok { Proto.r_body = Proto.Opened _; _ } -> Some "opened"
            | Ok { Proto.r_body = Proto.Armed _; _ } -> Some "armed"
            | _ -> None)
          (String.split_on_char '\n' (read_available sock))
      in
      check_string "replies flushed to the client" "opened,armed"
        (String.concat "," kinds);
      check_bool "wake consumed" true (readable (Daemon.server_fds srv) = []))

let test_slow_reader_backlog () =
  (* Megabytes of report replies against a client with a tiny receive
     buffer: the server must queue what the socket refuses and deliver
     every byte, in order, as the reader catches up. *)
  let t = Daemon.create () in
  let srv = Daemon.listen t ~port:0 () in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with _ -> ());
      Daemon.server_close srv;
      Daemon.shutdown t)
    (fun () ->
      Unix.setsockopt_int sock Unix.SO_RCVBUF 4096;
      Unix.connect sock
        (Unix.ADDR_INET (Unix.inet_addr_loopback, Daemon.server_port srv));
      let reports = 2500 in
      let frames =
        List.hd (script "b1") :: List.init reports (fun _ -> "report b1")
      in
      let payload = String.concat "" (List.map (fun l -> l ^ "\n") frames) in
      ignore (Unix.write_substring sock payload 0 (String.length payload));
      Daemon.server_poll srv;
      Daemon.drain t;
      Unix.set_nonblock sock;
      let got = Buffer.create 65536 in
      let lines () =
        List.length (String.split_on_char '\n' (Buffer.contents got)) - 1
      in
      let rounds = ref 0 in
      while lines () < reports + 1 && !rounds < 100_000 do
        incr rounds;
        Daemon.server_poll srv;
        Buffer.add_string got (read_available sock)
      done;
      check_bool "backlog larger than a socket buffer" true
        (Buffer.length got > 4 * 1024 * 1024);
      let replies =
        List.filter_map
          (fun l ->
            match Proto.decode_reply l with
            | Ok { Proto.r_sid = "b1"; r_seq; r_body } -> Some (r_seq, r_body)
            | _ -> None)
          (String.split_on_char '\n' (Buffer.contents got))
      in
      check_bool "every reply in order" true
        (List.map fst replies = List.init (reports + 1) (fun i -> i + 1));
      let bodies =
        List.filter_map
          (function _, Proto.Report_json j -> Some j | _ -> None)
          replies
      in
      check_bool "every report byte-identical" true
        (List.length bodies = reports
        && List.for_all (String.equal (List.hd bodies)) bodies))

(* Close with SO_LINGER 0: the peer gets a reset, not a FIN, so the
   next write to it fails (EPIPE, or SIGPIPE if not ignored). *)
let reset_close sock =
  Unix.setsockopt_optint sock Unix.SO_LINGER (Some 0);
  Unix.close sock

let test_peer_reset () =
  (* Replies still queued for a client that resets: flushing them must
     fail with EPIPE and reap the connection and its session, not kill
     the process with SIGPIPE. *)
  let t = Daemon.create () in
  let srv = Daemon.listen t ~port:0 () in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Daemon.server_close srv;
      Daemon.shutdown t)
    (fun () ->
      Unix.connect sock
        (Unix.ADDR_INET (Unix.inet_addr_loopback, Daemon.server_port srv));
      let frames = List.hd (script "r1") :: List.init 8 (fun _ -> "report r1") in
      let payload = String.concat "" (List.map (fun l -> l ^ "\n") frames) in
      ignore (Unix.write_substring sock payload 0 (String.length payload));
      Daemon.server_poll srv;
      check_int "open routed" 1 (Daemon.sessions_open t);
      reset_close sock;
      Daemon.drain t;
      for _ = 1 to 4 do
        Daemon.server_poll srv;
        Daemon.drain t
      done;
      check_int "reset peer's session closed" 0 (Daemon.sessions_open t))

(* --- wire latency and bounds ---------------------------------------------- *)

let connect_to srv sock =
  Unix.connect sock
    (Unix.ADDR_INET (Unix.inet_addr_loopback, Daemon.server_port srv))

let test_nodelay_on_accept () =
  (* Every accepted connection turns Nagle's algorithm off.  Connected
     sockets are the server fds with a peer: not the listener, not the
     wake pipe. *)
  let t = Daemon.create () in
  let srv = Daemon.listen t ~port:0 () in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with _ -> ());
      Daemon.server_close srv;
      Daemon.shutdown t)
    (fun () ->
      connect_to srv sock;
      Daemon.server_poll srv;
      let connected =
        List.filter
          (fun fd ->
            match Unix.getpeername fd with
            | _ -> true
            | exception Unix.Unix_error _ -> false)
          (Daemon.server_fds srv)
      in
      check_int "one accepted connection" 1 (List.length connected);
      List.iter
        (fun fd ->
          check_bool "TCP_NODELAY set" true (Unix.getsockopt fd Unix.TCP_NODELAY))
        connected)

let counter_program = {|
int counter;

int main() {
  int i;
  i = 0;
  while (i < 400) {
    counter = counter + 1;
    i = i + 1;
  }
  return counter;
}
|}

let test_replies_skip_delayed_ack () =
  (* Twenty sessions back to back on one connection, each [run]
     streaming 400 hits over several slices before [exited].  With
     Nagle on, each write after the first waits for this client's
     delayed ACK (~40 ms on Linux); without it a round trip takes a few
     ms.  Four slow trips are tolerated as host noise. *)
  let t = Daemon.create ~shards:1 ~slice:500 () in
  let srv = Daemon.listen t ~port:0 () in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with _ -> ());
      Daemon.server_close srv;
      Daemon.shutdown t)
    (fun () ->
      Unix.setsockopt sock Unix.TCP_NODELAY true;
      connect_to srv sock;
      Unix.set_nonblock sock;
      let pending = Buffer.create 65536 in
      (* Send [frame], then serve and read until its terminal reply;
         return that reply and the round trip in ms. *)
      let exchange frame =
        let t0 = Unix.gettimeofday () in
        let line = frame ^ "\n" in
        ignore (Unix.write_substring sock line 0 (String.length line));
        let rec await () =
          if Unix.gettimeofday () -. t0 > 10.0 then
            Alcotest.fail ("no terminal reply to " ^ frame);
          (try ignore (Unix.select (sock :: Daemon.server_fds srv) [] [] 0.5)
           with Unix.Unix_error (Unix.EINTR, _, _) -> ());
          Daemon.server_poll srv;
          Buffer.add_string pending (read_available sock);
          let data = Buffer.contents pending in
          match String.rindex_opt data '\n' with
          | None -> await ()
          | Some i -> (
            Buffer.clear pending;
            Buffer.add_string pending
              (String.sub data (i + 1) (String.length data - i - 1));
            let last =
              List.find_map
                (fun l ->
                  match Proto.decode_reply l with
                  | Ok { Proto.r_body; _ } when Proto.terminal r_body ->
                    Some r_body
                  | _ -> None)
                (String.split_on_char '\n' (String.sub data 0 i))
            in
            match last with
            | Some body -> (body, (Unix.gettimeofday () -. t0) *. 1000.0)
            | None -> await ())
        in
        await ()
      in
      let send cmd = exchange (Proto.encode_command cmd) in
      let runs =
        List.init 20 (fun i ->
            let sid = Printf.sprintf "n%d" i in
            let source = Proto.Program counter_program in
            ignore
              (send
                 (Proto.Open
                    { sid; source; strategy = "BitmapInlineRegisters"; opt = "none" }));
            ignore (send (Proto.Arm { sid; target = Proto.Var "counter" }));
            let body, ms = send (Proto.Run { sid; fuel = 100_000_000 }) in
            (match body with
            | Proto.Exited _ -> ()
            | _ -> Alcotest.fail "run did not end in exited");
            ignore (send (Proto.Close { sid }));
            ms)
      in
      let slow = List.filter (fun ms -> ms >= 30.0) runs in
      check_bool
        (Printf.sprintf "at most 4 of 20 run round trips >= 30 ms (got %s)"
           (String.concat ", " (List.map (Printf.sprintf "%.1f") slow)))
        true
        (List.length slow <= 4))

(* About ten million instructions: at a 1000-instruction slice, many
   thousand shard-0 jobs.  [counter] is written every 256th iteration,
   in every 10,000-instruction checkpoint window, 3907 times in all. *)
let long_program = {|
int counter;

int main() {
  int i;
  i = 0;
  while (i < 1000000) {
    if ((i & 255) == 0) {
      counter = i;
    }
    i = i + 1;
  }
  return 0;
}
|}

(* The first session id [prefix]N that a two-shard engine hashes to
   [shard]. *)
let sid_on_shard shard prefix =
  let probe = Sched.create ~shards:2 () in
  Fun.protect
    ~finally:(fun () -> Sched.shutdown probe)
    (fun () ->
      let rec go i =
        let sid = Printf.sprintf "%s%d" prefix i in
        if Sched.shard_of probe sid = shard then sid else go (i + 1)
      in
      go 0)

let test_shard0_head_of_line () =
  (* The serving domain runs at most one shard-0 job per poll, so a
     long run on shard 0 cannot hold back socket I/O: a short session
     sent while the run is under way is read, run on shard 1 and
     closed before the long run exits.  The same holds for a query:
     a history of [counter] replays every window of the long run, and
     a second short session sent after its first slices closes before
     the history reply. *)
  let t = Daemon.create ~shards:2 ~slice:1000 () in
  let srv = Daemon.listen t ~port:0 () in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with _ -> ());
      Daemon.server_close srv;
      Daemon.shutdown t)
    (fun () ->
      connect_to srv sock;
      Unix.set_nonblock sock;
      let long = sid_on_shard 0 "long" and short = sid_on_shard 1 "short" in
      let late = sid_on_shard 1 "late" in
      let send cmds =
        let frames =
          String.concat "" (List.map (fun c -> Proto.encode_command c ^ "\n") cmds)
        in
        ignore (Unix.write_substring sock frames 0 (String.length frames))
      in
      let opener sid source =
        Proto.Open
          { sid; source = Proto.Program source;
            strategy = "BitmapInlineRegisters"; opt = "none" }
      in
      (* Terminal events in arrival order. *)
      let events = ref [] and pending = Buffer.create 4096 in
      let t0 = Unix.gettimeofday () in
      let rec serve_until p =
        if not (p ()) then begin
          if Unix.gettimeofday () -. t0 > 60.0 then
            Alcotest.fail "no reply within 60 s";
          (try ignore (Unix.select (sock :: Daemon.server_fds srv) [] [] 0.5)
           with Unix.Unix_error (Unix.EINTR, _, _) -> ());
          Daemon.server_poll srv;
          Buffer.add_string pending (read_available sock);
          let data = Buffer.contents pending in
          (match String.rindex_opt data '\n' with
          | None -> ()
          | Some i ->
            Buffer.clear pending;
            Buffer.add_string pending
              (String.sub data (i + 1) (String.length data - i - 1));
            List.iter
              (fun l ->
                match Proto.decode_reply l with
                | Ok { Proto.r_sid; r_body = Proto.Opened _; _ } ->
                  events := (r_sid ^ " opened") :: !events
                | Ok { Proto.r_sid; r_body = Proto.Exited { executed; _ }; _ } ->
                  events := (r_sid ^ " exited") :: !events;
                  if r_sid = long then
                    check_bool "the long run is millions of instructions" true
                      (executed > 5_000_000)
                | Ok { Proto.r_sid; r_body = Proto.Closed; _ } ->
                  events := (r_sid ^ " closed") :: !events
                | Ok { Proto.r_sid; r_body = Proto.History { count }; _ } ->
                  events := (r_sid ^ " history") :: !events;
                  check_int "every write to counter" 3907 count
                | Ok { Proto.r_body = Proto.Error m; _ } -> Alcotest.fail m
                | _ -> ())
              (String.split_on_char '\n' (String.sub data 0 i)));
          serve_until p
        end
      in
      let seen e () = List.mem e !events in
      send [ opener long long_program; Proto.Run { sid = long; fuel = 100_000_000 } ];
      serve_until (seen (long ^ " opened"));
      send
        [
          opener short counter_program;
          Proto.Run { sid = short; fuel = 100_000_000 };
          Proto.Close { sid = short };
        ];
      serve_until (fun () -> seen (short ^ " closed") () && seen (long ^ " exited") ());
      check_string "short session closes while the long run is under way"
        (String.concat ", "
           [ long ^ " opened"; short ^ " opened"; short ^ " exited";
             short ^ " closed"; long ^ " exited" ])
        (String.concat ", " (List.rev !events));
      events := [];
      send [ Proto.Query_history { sid = long; target = "counter"; len = 4 } ];
      (* A few passes read the query and run its first slices. *)
      for _ = 1 to 3 do
        Daemon.server_poll srv
      done;
      send
        [
          opener late counter_program;
          Proto.Run { sid = late; fuel = 100_000_000 };
          Proto.Close { sid = late };
        ];
      serve_until (fun () -> seen (late ^ " closed") () && seen (long ^ " history") ());
      check_string "a later session closes while the history replays"
        (String.concat ", "
           [ late ^ " opened"; late ^ " exited"; late ^ " closed"; long ^ " history" ])
        (String.concat ", " (List.rev !events)))

(* Queries at a 1000-instruction slice, each across several slices.
   (a) Arming between two run slices leaves the recorded window
   unrepeatable (ROADMAP item 1's open gap), so a history over it fails
   at the window's end, mid-cursor: one error reply, and the session
   keeps answering — a travel, a report, a run — with no job escaped.
   (b) A report queued behind a multi-slice history is answered after
   the history's last write line. *)
let test_sliced_query_failure_and_order () =
  let t = Daemon.create ~shards:2 ~slice:1000 () in
  Fun.protect
    ~finally:(fun () -> Daemon.shutdown t)
    (fun () ->
      let c = Daemon.client t in
      let opener sid src =
        Proto.Open
          { sid; source = Proto.Program src; strategy = "BitmapInlineRegisters";
            opt = "none" }
      in
      let arm sid = Proto.Arm { sid; target = Proto.Var "counter" } in
      let history sid = Proto.Query_history { sid; target = "counter"; len = 4 } in
      List.iter
        (fun cmd -> Daemon.submit t c (Proto.encode_command cmd))
        [
          opener "f" long_program; Proto.Run { sid = "f"; fuel = 200 }; arm "f";
          Proto.Run { sid = "f"; fuel = 100_000_000 }; history "f";
          Proto.Travel { sid = "f"; insn = 100 }; Proto.Report { sid = "f" };
          Proto.Run { sid = "f"; fuel = 100_000_000 };
          opener "o" counter_program; arm "o"; Proto.Run { sid = "o"; fuel = 100_000_000 };
          history "o"; Proto.Report { sid = "o" };
        ];
      Daemon.drain t;
      let replies = List.map (fun l -> Result.get_ok (Proto.decode_reply l)) (Daemon.output c) in
      let kinds sid =
        List.filter_map
          (fun { Proto.r_sid; r_body; _ } ->
            (match r_body with
            | Proto.Error m ->
              check_bool ("typed divergence: " ^ m) true
                (String.starts_with ~prefix:"replay diverged from the recorded run at insn" m)
            | _ -> ());
            if r_sid = sid then Some (kind r_body) else None)
          replies
      in
      let after_hits l = List.filter (fun k -> k <> "hit") l in
      check_string "(a) one error, then every later command answered"
        "opened,running,armed,exited,error,traveled,report,exited"
        (String.concat "," (after_hits (kinds "f")));
      let o = kinds "o" in
      let writes = List.length (List.filter (( = ) "write") o) in
      check_int "(b) 400 writes" 400 writes;
      check_string "(b) report after the last write"
        ("opened,armed,exited,history," ^ String.concat "," (List.init 400 (fun _ -> "write"))
        ^ ",report")
        (String.concat "," (after_hits o));
      let last_write_insn =
        List.fold_left
          (fun acc { Proto.r_sid; r_body; _ } ->
            match r_body with Proto.Write { insn; _ } when r_sid = "o" -> insn | _ -> acc)
          0 replies
      in
      check_bool "(b) the replayed window spans several slices" true (last_write_insn > 2000);
      check_bool "no job escaped" true
        (List.mem "dbreakd_job_failures_total 0"
           (String.split_on_char '\n' (Daemon.metrics_body t))))

let test_overlong_frame () =
  (* A frame that never ends: the daemon stops buffering at the cap,
     answers once with an error and reaps the connection, closing its
     session. *)
  let t = Daemon.create () in
  let srv = Daemon.listen t ~port:0 () in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with _ -> ());
      Daemon.server_close srv;
      Daemon.shutdown t)
    (fun () ->
      connect_to srv sock;
      let opening = List.hd (script "o1") ^ "\n" in
      ignore (Unix.write_substring sock opening 0 (String.length opening));
      Daemon.server_poll srv;
      Daemon.drain t;
      check_int "open routed" 1 (Daemon.sessions_open t);
      Unix.set_nonblock sock;
      let junk = String.make (2 * 1024 * 1024) 'x' in
      let sent = ref 0 and got = Buffer.create 4096 and closed = ref false in
      let chunk = Bytes.create 4096 in
      let rounds = ref 0 in
      while (not !closed) && !rounds < 100_000 do
        incr rounds;
        (if !sent < String.length junk then
           let left = String.length junk - !sent in
           match Unix.write_substring sock junk !sent left with
           | k -> sent := !sent + k
           | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
           | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
             sent := String.length junk);
        Daemon.server_poll srv;
        match Unix.read sock chunk 0 (Bytes.length chunk) with
        | 0 -> closed := true
        | k -> Buffer.add_subbytes got chunk 0 k
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> closed := true
      done;
      check_bool "connection closed by the daemon" true !closed;
      let errors =
        List.filter
          (fun l ->
            match Proto.decode_reply l with
            | Ok { Proto.r_sid = "-"; r_body = Proto.Error _; _ } -> true
            | _ -> false)
          (String.split_on_char '\n' (Buffer.contents got))
      in
      check_int "exactly one error reply" 1 (List.length errors);
      check_int "connection reaped" 2 (List.length (Daemon.server_fds srv));
      Daemon.drain t;
      check_int "its session closed" 0 (Daemon.sessions_open t))

let test_unread_firehose_reaped () =
  (* A client that never reads while its run streams hits: once its
     unsent bytes pass the daemon's cap, the connection is reaped like a
     peer reset and its session closes.  Counted in passes, not time. *)
  let t = Daemon.create ~shards:1 () in
  let srv = Daemon.listen t ~port:0 () in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with _ -> ());
      Daemon.server_close srv;
      Daemon.shutdown t)
    (fun () ->
      Unix.setsockopt_int sock Unix.SO_RCVBUF 4096;
      connect_to srv sock;
      let payload =
        String.concat "" (List.map (fun l -> l ^ "\n") (firehose_frames "h1" 40_000_000))
      in
      ignore (Unix.write_substring sock payload 0 (String.length payload));
      let rounds = ref 0 in
      while (!rounds = 0 || Daemon.sessions_open t > 0) && !rounds < 2000 do
        incr rounds;
        Daemon.server_poll srv
      done;
      check_int "its session closed" 0 (Daemon.sessions_open t);
      check_int "connection reaped" 2 (List.length (Daemon.server_fds srv)))

let test_no_fd_leak () =
  if not (Sys.file_exists "/proc/self/fd") then Alcotest.skip ();
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let before = open_fds () in
  for _ = 1 to 100 do
    Daemon.shutdown (Daemon.create ())
  done;
  check_int "create/shutdown leaves no fd behind" before (open_fds ())

(* --- scrape hardening ---------------------------------------------------- *)

(* Poll the endpoint until it closes [sock], reading the response as
   it arrives; a head that never completes is answered once its
   deadline has passed, so this may take a second. *)
let scrape_response srv sock =
  Unix.set_nonblock sock;
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let until = Unix.gettimeofday () +. 10. in
  let rec go () =
    ignore (Scrape.poll srv);
    match Unix.read sock chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | k ->
      Buffer.add_subbytes buf chunk 0 k;
      go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      when Unix.gettimeofday () < until ->
      ignore (Unix.select [ sock ] [] [] 0.05);
      go ()
    | exception Unix.Unix_error _ -> ()
  in
  go ();
  Buffer.contents buf

let http_roundtrip srv ~shutdown_after request =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with _ -> ())
    (fun () ->
      Unix.connect sock
        (Unix.ADDR_INET (Unix.inet_addr_loopback, Scrape.port srv));
      ignore (Unix.write_substring sock request 0 (String.length request));
      if shutdown_after then Unix.shutdown sock Unix.SHUTDOWN_SEND;
      scrape_response srv sock)

let has_substring hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let test_scrape_hardening () =
  let calls = ref 0 in
  let srv =
    Scrape.create ~port:0
      ~metrics:(fun () ->
        incr calls;
        "m 1\n")
      ()
  in
  Fun.protect
    ~finally:(fun () -> Scrape.close srv)
    (fun () ->
      (* An oversized head with no terminator fills the 2 KiB cap: 400,
         and the metrics callback never runs. *)
      let resp =
        http_roundtrip srv ~shutdown_after:false (String.make 4096 'A')
      in
      check_bool "oversized head is 400" true
        (has_substring resp "HTTP/1.0 400");
      (* Ditto when the flood starts with a plausible request line:
         completeness, not luck of the buffer boundary, decides. *)
      let resp =
        http_roundtrip srv ~shutdown_after:false
          ("GET /metrics HTTP/1.0\r\nX-Pad: " ^ String.make 4096 'B')
      in
      check_bool "oversized header block is 400" true
        (has_substring resp "HTTP/1.0 400");
      check_int "oversized heads never reach the metrics callback" 0 !calls;
      (* A slow-loris that stalls mid-head runs out its head deadline:
         400, bounded wait, never dispatched. *)
      let resp = http_roundtrip srv ~shutdown_after:false "GET /met" in
      check_bool "stalled partial head is 400" true
        (has_substring resp "HTTP/1.0 400");
      (* A sloppy client that closes after a complete request line (no
         terminating blank line) is still served. *)
      let resp =
        http_roundtrip srv ~shutdown_after:true "GET /metrics HTTP/1.0\r\n"
      in
      check_bool "clean-EOF request still served" true
        (has_substring resp "HTTP/1.0 200 OK");
      check_bool "clean-EOF request got the body" true
        (has_substring resp "m 1");
      (* A fully terminated request is unaffected by the hardening. *)
      let resp =
        http_roundtrip srv ~shutdown_after:false "GET / HTTP/1.0\r\n\r\n"
      in
      check_bool "terminated request still served" true
        (has_substring resp "HTTP/1.0 200 OK");
      (* A scraper that resets mid-head, before its reply is written,
         costs only that request: the read sees the reset, and the 400
         then fails with EPIPE, not SIGPIPE. *)
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect sock
        (Unix.ADDR_INET (Unix.inet_addr_loopback, Scrape.port srv));
      let req = "GET /met" in
      ignore (Unix.write_substring sock req 0 (String.length req));
      reset_close sock;
      check_int "reset request answered" 1 (Scrape.poll srv);
      let resp =
        http_roundtrip srv ~shutdown_after:false "GET / HTTP/1.0\r\n\r\n"
      in
      check_bool "served after a reset" true
        (has_substring resp "HTTP/1.0 200 OK"))

(* A scraper that sends a complete GET and then one byte every 100 ms
   for 3 s, against dbreakd's one serving loop: a wire [hello] in the
   meantime is answered at once, and the endpoint closes the scraper's
   connection by its deadline.  The two clients run on another domain;
   this one serves. *)
let test_dripping_scraper () =
  let t = Daemon.create () in
  let srv = Daemon.listen t ~port:0 () in
  let scrape = Scrape.create ~port:0 ~metrics:(fun () -> Daemon.metrics_body t) () in
  let connect port =
    let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    s
  in
  let send s m = ignore (Unix.write_substring s m 0 (String.length m)) in
  let clients () =
    let drip = connect (Scrape.port scrape) and wire = connect (Daemon.server_port srv) in
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ drip; wire ])
      (fun () ->
        let start = Unix.gettimeofday () in
        send drip "GET /metrics HTTP/1.0\r\n\r\n";
        let rtt = ref infinity and closed_at = ref infinity in
        let rec go i =
          if i < 30 && !closed_at = infinity then begin
            Unix.sleepf 0.1;
            (match send drip "x" with
            | () -> ()
            | exception Unix.Unix_error _ -> closed_at := Unix.gettimeofday () -. start);
            if i = 3 then begin
              let sent = Unix.gettimeofday () in
              send wire "hello\n";
              match Unix.select [ wire ] [] [] 2.0 with
              | [ _ ], _, _ -> rtt := Unix.gettimeofday () -. sent
              | _ -> ()
            end;
            go (i + 1)
          end
        in
        go 0;
        (!rtt, !closed_at))
  in
  Fun.protect
    ~finally:(fun () ->
      Daemon.server_close srv;
      Scrape.close scrape;
      Daemon.shutdown t)
    (fun () ->
      let d = Domain.spawn clients in
      Daemon.serve_for ~scrape srv ~seconds:2.0;
      let rtt, closed_at = Domain.join d in
      check_bool (Printf.sprintf "hello answered in %.3f s" rtt) true (rtt < 0.2);
      check_bool
        (Printf.sprintf "scraper closed %.2f s after its request" closed_at)
        true (closed_at < 1.5))

(* --- front-end vocabulary ------------------------------------------------ *)

(* dbreak and dbreakd word every failure, -O level and unresolvable
   target alike: each mapped exception gets its one-line message, and
   anything else is left to escape. *)
let test_frontend_vocabulary () =
  List.iter
    (fun (e, want) ->
      Alcotest.(check (option string))
        (Printexc.to_string e) (Some want) (Frontend.error_message e))
    [
      (Sys_error "p: No such file", "p: No such file");
      (Invalid_argument "bad arg", "bad arg");
      (Failure "assembly failed", "assembly failed");
      ( Replay.Determinism_violation { insn = 7; expected = "a"; actual = "b" },
        "replay diverged from the recorded run at insn 7 (b, expected a)" );
      ( Minic.Compile.Error { Minic.Compile.phase = "parse"; message = "eof" },
        "parse error: eof" );
      ( Machine.Cpu.Fault { pc = 0x10010; reason = "misaligned" },
        "machine fault at 0x10010: misaligned" );
      ( Machine.Cpu.Out_of_fuel { executed = 42 },
        "out of fuel after 42 instructions" );
      (Dbp.Debugger.No_such_variable "zz", "no such variable: zz");
    ];
  Alcotest.(check (option string)) "unmapped escapes" None
    (Frontend.error_message Not_found);
  check_string "unresolved target"
    "cannot resolve \"q\" to a data address (expected 0x-hex, decimal, or a \
     global variable name)"
    (Frontend.unresolved_target "q");
  List.iter
    (fun (name, canonical) ->
      match Frontend.parse_opt name with
      | Ok o -> check_string name canonical (Frontend.opt_name o)
      | Error m -> Alcotest.fail m)
    [ ("none", "none"); ("0", "none"); ("symbol", "symbol"); ("sym", "symbol");
      ("full", "full"); ("loop", "full") ];
  Alcotest.(check (result reject string)) "unknown level"
    (Error "unknown optimization level \"O3\"")
    (Result.map (fun _ -> ()) (Frontend.parse_opt "O3"))

(* --- suites -------------------------------------------------------------- *)

let suites =
  [
    ( "serve.proto",
      [
        Alcotest.test_case "escape edges" `Quick test_escape_edges;
        QCheck_alcotest.to_alcotest prop_escape_roundtrip;
        QCheck_alcotest.to_alcotest prop_command_roundtrip;
        QCheck_alcotest.to_alcotest prop_reply_roundtrip;
        QCheck_alcotest.to_alcotest prop_decoders_total;
        Alcotest.test_case "malformed frames rejected" `Quick
          test_malformed_frames;
      ] );
    ("serve.edge", [ QCheck_alcotest.to_alcotest prop_edge_core ]);
    ( "serve.sched",
      [
        Alcotest.test_case "per-key FIFO and failure backstop" `Quick
          test_sched_ordering;
        Alcotest.test_case "merge determinism across shard counts" `Quick
          test_sched_merge_determinism;
        Alcotest.test_case "shard 0 runs on the creating domain" `Quick
          test_sched_local_shard;
      ] );
    ( "serve.daemon",
      [
        Alcotest.test_case "full-session transcript" `Slow
          test_engine_transcripts;
        Alcotest.test_case "transcripts and telemetry shard-invariant" `Slow
          test_engine_shard_determinism;
        Alcotest.test_case "queries count nothing, stream no hit" `Quick
          test_queries_count_nothing;
        Alcotest.test_case "errors, gauges, disconnect" `Quick
          test_engine_errors_and_gauges;
        Alcotest.test_case "disconnect ends the client's run" `Quick
          test_disconnect_ends_run;
        Alcotest.test_case "overlapping arm answered, session kept" `Quick
          test_bad_arm_answered;
        Alcotest.test_case "escaped job counted in /metrics" `Quick
          test_job_failure_metric;
        Alcotest.test_case "sliced queries: typed failure, no overtaking" `Quick
          test_sliced_query_failure_and_order;
        Alcotest.test_case "shard replies wake the server fds" `Quick
          test_wake_on_replies;
        Alcotest.test_case "slow reader gets the whole backlog" `Quick
          test_slow_reader_backlog;
        Alcotest.test_case "peer reset reaps, does not kill" `Quick
          test_peer_reset;
        Alcotest.test_case "create/shutdown leaks no fds" `Quick
          test_no_fd_leak;
        Alcotest.test_case "accepted connections set TCP_NODELAY" `Quick
          test_nodelay_on_accept;
        Alcotest.test_case "run replies skip the delayed-ACK clock" `Quick
          test_replies_skip_delayed_ack;
        Alcotest.test_case "a client that never reads is reaped" `Quick
          test_unread_firehose_reaped;
        Alcotest.test_case "overlong frame answered once and reaped" `Quick
          test_overlong_frame;
        Alcotest.test_case "a long shard-0 run does not hold back shard 1"
          `Quick test_shard0_head_of_line;
      ] );
    ( "serve.frontend",
      [
        Alcotest.test_case "shared messages and -O names" `Quick
          test_frontend_vocabulary;
      ] );
    ( "serve.scrape",
      [
        Alcotest.test_case "malformed-head hardening" `Slow
          test_scrape_hardening;
        Alcotest.test_case "a dripping scraper does not stall the wire" `Quick
          test_dripping_scraper;
      ] );
  ]
