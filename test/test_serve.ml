(* The service layer: dbp-wire/1 codec round-trips and decoder
   totality, the shard scheduler's ordering/merge guarantees, the
   daemon engine's transcript and telemetry determinism across shard
   counts, peer resets on both listeners, and the scrape endpoint's
   malformed-request hardening. *)

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
          | Ok { Proto.r_body; _ } -> (
            match r_body with
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
            | _ -> "?")
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

let test_no_fd_leak () =
  if not (Sys.file_exists "/proc/self/fd") then Alcotest.skip ();
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let before = open_fds () in
  for _ = 1 to 100 do
    Daemon.shutdown (Daemon.create ())
  done;
  check_int "create/shutdown leaves no fd behind" before (open_fds ())

(* --- scrape hardening ---------------------------------------------------- *)

let http_roundtrip srv ~shutdown_after request =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with _ -> ())
    (fun () ->
      Unix.connect sock
        (Unix.ADDR_INET (Unix.inet_addr_loopback, Scrape.port srv));
      ignore (Unix.write_substring sock request 0 (String.length request));
      if shutdown_after then Unix.shutdown sock Unix.SHUTDOWN_SEND;
      ignore (Scrape.poll srv);
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      (try
         let rec drain () =
           let k = Unix.read sock chunk 0 (Bytes.length chunk) in
           if k > 0 then begin
             Buffer.add_subbytes buf chunk 0 k;
             drain ()
           end
         in
         drain ()
       with Unix.Unix_error _ -> ());
      Buffer.contents buf)

let has_substring hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let test_scrape_hardening () =
  let srv = Scrape.create ~port:0 ~metrics:(fun () -> "m 1\n") () in
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
      (* A slow-loris that stalls mid-head hits the receive timeout:
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
      let served = Scrape.served srv in
      ignore (Scrape.poll srv);
      check_int "reset request counted" (served + 1) (Scrape.served srv);
      let resp =
        http_roundtrip srv ~shutdown_after:false "GET / HTTP/1.0\r\n\r\n"
      in
      check_bool "served after a reset" true
        (has_substring resp "HTTP/1.0 200 OK"))

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
    ( "serve.sched",
      [
        Alcotest.test_case "per-key FIFO and failure backstop" `Quick
          test_sched_ordering;
        Alcotest.test_case "merge determinism across shard counts" `Quick
          test_sched_merge_determinism;
      ] );
    ( "serve.daemon",
      [
        Alcotest.test_case "full-session transcript" `Slow
          test_engine_transcripts;
        Alcotest.test_case "transcripts and telemetry shard-invariant" `Slow
          test_engine_shard_determinism;
        Alcotest.test_case "errors, gauges, disconnect" `Quick
          test_engine_errors_and_gauges;
        Alcotest.test_case "shard replies wake the server fds" `Quick
          test_wake_on_replies;
        Alcotest.test_case "slow reader gets the whole backlog" `Quick
          test_slow_reader_backlog;
        Alcotest.test_case "peer reset reaps, does not kill" `Quick
          test_peer_reset;
        Alcotest.test_case "create/shutdown leaks no fds" `Quick
          test_no_fd_leak;
      ] );
    ( "serve.scrape",
      [
        Alcotest.test_case "malformed-head hardening" `Slow
          test_scrape_hardening;
      ] );
  ]
