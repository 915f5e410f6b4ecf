(* The service experiment: drive K concurrent debug sessions through a
   loopback dbreakd engine and check that what each session sees does
   not depend on how many shards serve it.

   For each fleet size K in {1, 8, 64} a fresh engine is spun up with
   [Pool.jobs ()] shards and a TCP listener on an ephemeral loopback
   port; K scripted clients each run the same five-command session
   (open → arm → run to completion → last-write query → close) through
   a single-threaded select loop that interleaves client FSM steps with
   [Daemon.server_poll] — exactly the daemon's own serving discipline,
   with the heavy lifting on the shard domains.

   Everything printed is byte-identical for every [-j]: session s1's
   full reply transcript, per-session reply summaries, and the engine's
   merged telemetry — absorbed into this domain's [Pool.telemetry_sink],
   so the trailing merged summary covers it under the service-smoke
   diff.  Daemon latency and throughput are perfbench's: the
   [daemon.*] metrics and the svc-interactive and svc-fleet
   workloads. *)

let fleet_sizes = [ 1; 8; 64 ]

(* ~200 watched-global writes per session: enough hit traffic to be a
   real stream, small enough that K=64 stays snappy. *)
let program = {|
int counter;
int total;

int bump(int k) {
  counter = counter + k;
  return counter;
}

int main() {
  int i;
  i = 0;
  total = 0;
  while (i < 200) {
    total = total + bump(1);
    i = i + 1;
  }
  return counter;
}
|}

(* One scripted client connection. *)
type cstate = {
  sid : string;
  fd : Unix.file_descr;
  rbuf : Buffer.t;  (* unconsumed reply bytes *)
  mutable script : string list;  (* commands not yet sent *)
  mutable in_flight : bool;
  mutable transcript : string list;  (* reverse order *)
  mutable hits : int;
  mutable replies : int;
  mutable exit_code : int option;
  mutable last_write_insn : int option;
  mutable done_ : bool;
}

let session_script sid =
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
    Proto.encode_command (Proto.Run { sid; fuel = 100_000_000 });
    Proto.encode_command (Proto.Query_last_write { sid; target = "counter" });
    Proto.encode_command (Proto.Close { sid });
  ]

let send_next c =
  match c.script with
  | [] ->
    c.done_ <- true;
    c.in_flight <- false
  | cmd :: rest ->
    c.script <- rest;
    let frame = cmd ^ "\n" in
    (* Loopback socket buffers dwarf our largest frame (the escaped
       program source); a single write always takes it all. *)
    ignore (Unix.write_substring c.fd frame 0 (String.length frame));
    c.in_flight <- true

let note_reply c line =
  c.replies <- c.replies + 1;
  c.transcript <- line :: c.transcript;
  let terminal =
    match Proto.decode_reply line with
    | Error _ -> true
    | Ok { Proto.r_body; _ } -> (
      (match r_body with
      | Proto.Hit _ -> c.hits <- c.hits + 1
      | Proto.Exited { code; _ } -> c.exit_code <- Some code
      | Proto.Last_write { insn; _ } -> c.last_write_insn <- Some insn
      | _ -> ());
      Proto.terminal r_body)
  in
  if terminal && c.in_flight then begin
    c.in_flight <- false;
    send_next c
  end

let pump_client c =
  let chunk = Bytes.create 8192 in
  let rec read_all () =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | k ->
      Buffer.add_subbytes c.rbuf chunk 0 k;
      read_all ()
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      ()
  in
  read_all ();
  let data = Buffer.contents c.rbuf in
  Buffer.clear c.rbuf;
  let rec split start =
    match String.index_from_opt data start '\n' with
    | None ->
      if start < String.length data then
        Buffer.add_substring c.rbuf data start (String.length data - start)
    | Some i ->
      note_reply c (String.sub data start (i - start));
      split (i + 1)
  in
  split 0

let run_fleet k =
  let engine = Daemon.create ~shards:(Pool.jobs ()) () in
  let srv = Daemon.listen engine ~port:0 () in
  let port = Daemon.server_port srv in
  let clients =
    List.init k (fun i ->
        let sid = Printf.sprintf "s%d" (i + 1) in
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Unix.set_nonblock fd;
        {
          sid;
          fd;
          rbuf = Buffer.create 4096;
          script = session_script sid;
          in_flight = false;
          transcript = [];
          hits = 0;
          replies = 0;
          exit_code = None;
          last_write_insn = None;
          done_ = false;
        })
  in
  List.iter send_next clients;
  while not (List.for_all (fun c -> c.done_) clients) do
    (try
       ignore
         (Unix.select
            (Daemon.server_fds srv @ List.map (fun c -> c.fd) clients)
            [] [] 0.01)
     with Unix.Unix_error (Unix.EINTR, _, _) -> ());
    Daemon.server_poll srv;
    List.iter (fun c -> if not c.done_ then pump_client c) clients
  done;
  List.iter (fun c -> try Unix.close c.fd with _ -> ()) clients;
  Daemon.server_close srv;
  Daemon.drain engine;
  (* Fold this fleet's engine telemetry into the bench harness's own
     sink: the trailing merged summary stays the single source of
     truth, under the -j parity diff. *)
  Telemetry.absorb (Pool.telemetry_sink ()) (Daemon.merged_report engine);
  Daemon.shutdown engine;

  (* Deterministic stdout: one full transcript + per-session digests. *)
  Printf.printf "\n== service: %d concurrent sessions ==\n" k;
  let s1 = List.hd clients in
  Printf.printf "--- transcript %s ---\n" s1.sid;
  List.iter print_endline (List.rev s1.transcript);
  Printf.printf "--- sessions ---\n";
  List.iter
    (fun c ->
      Printf.printf "%-4s replies=%d hits=%d exit=%s last-write-insn=%s\n"
        c.sid c.replies c.hits
        (match c.exit_code with Some e -> string_of_int e | None -> "?")
        (match c.last_write_insn with
        | Some i -> string_of_int i
        | None -> "?"))
    clients

let run () = List.iter run_fleet fleet_sizes
