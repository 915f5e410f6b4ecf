(* dbreakd — the data-breakpoint service daemon.

   Server mode: listen for dbp-wire/1 clients, multiplex their debug
   sessions across a shard pool, optionally expose live aggregated
   telemetry on a Prometheus scrape port.

     dbreakd --port 7070 --shards 4 --metrics-port 9090 --serve-for 60

   Client mode: drive a scripted session against a running daemon and
   print every reply line verbatim (the transcript is deterministic, so
   CI can diff it).

     dbreakd --connect 7070 --script session.dbp

   Script files hold one dbp-wire/1 command per line ('#' comments and
   blank lines skipped), plus one client-side convenience:

     !open SID FILE STRATEGY OPT

   which reads mini-C source from FILE and sends the equivalent
   [open SID program <escaped source> STRATEGY OPT] frame. *)

open Cmdliner

let fail msg =
  Printf.eprintf "dbreakd: %s\n" msg;
  1

(* --- client mode ------------------------------------------------------- *)

(* One command in flight at a time: send a line, then read replies
   until the command completes — a terminal reply ([opened], [exited],
   [closed], [error], ...), or, for [query history], the [history C]
   header followed by its C [write] frames.  Async [hit] frames are
   part of the stream and never terminate a command. *)

let read_reply_line inb = try Some (input_line inb) with End_of_file -> None

let command_done line pending_writes =
  match Proto.decode_reply line with
  | Error _ -> true (* unparseable traffic: stop rather than hang *)
  | Ok { Proto.r_body; _ } -> (
    match r_body with
    | Proto.History { count } ->
      pending_writes := count;
      !pending_writes = 0
    | Proto.Write _ ->
      decr pending_writes;
      !pending_writes <= 0
    | body -> Proto.terminal body)

let expand_script_line line =
  match String.split_on_char ' ' line with
  | "!open" :: sid :: rest -> (
    (* FILE may contain escaped spaces? No — script sugar keeps it
       simple: FILE is a plain path token. *)
    match rest with
    | [ file; strategy; opt ] ->
      let src = Frontend.read_file file in
      Proto.encode_command
        (Proto.Open { sid; source = Proto.Program src; strategy; opt })
    | _ -> raise (Sys_error "usage: !open SID FILE STRATEGY OPT")
    )
  | _ -> line

let run_client host port script =
  let lines =
    Frontend.read_file script |> String.split_on_char '\n'
    |> List.filter_map (fun l ->
           let l = String.trim l in
           if l = "" || l.[0] = '#' then None else Some l)
  in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      let inb = Unix.in_channel_of_descr sock in
      let outb = Unix.out_channel_of_descr sock in
      let ok = ref true in
      List.iter
        (fun line ->
          if !ok then begin
            let frame = expand_script_line line in
            output_string outb frame;
            output_char outb '\n';
            flush outb;
            let pending_writes = ref (-1) in
            let rec await () =
              match read_reply_line inb with
              | None ->
                ok := false;
                prerr_endline "dbreakd: server closed the connection"
              | Some reply ->
                print_endline reply;
                if not (command_done reply pending_writes) then await ()
            in
            await ()
          end)
        lines;
      if !ok then 0 else 1)

(* --- server mode ------------------------------------------------------- *)

let run_server port shards slice metrics_port serve_seconds =
  let engine = Daemon.create ~shards ~slice () in
  let srv = Daemon.listen engine ~port () in
  Printf.printf "dbreakd listening on 127.0.0.1:%d (%d shards)\n%!"
    (Daemon.server_port srv) (Daemon.shards engine);
  let scrape =
    match metrics_port with
    | None -> None
    | Some p ->
      let s = Scrape.create ~port:p ~metrics:(fun () -> Daemon.metrics_body engine) () in
      Printf.printf "serving metrics on http://127.0.0.1:%d/metrics\n%!"
        (Scrape.port s);
      Some s
  in
  Daemon.serve_for srv ~seconds:serve_seconds ?scrape;
  Daemon.server_close srv;
  Option.iter Scrape.close scrape;
  Daemon.drain engine;
  Daemon.shutdown engine;
  0

(* --- command line ------------------------------------------------------ *)

let run_cmd port shards slice metrics_port serve_seconds connect host script =
  try
    match (connect, script) with
    | Some cport, Some s -> run_client host cport s
    | Some _, None -> fail "--connect requires --script FILE"
    | None, Some _ -> fail "--script requires --connect PORT"
    | None, None -> run_server port shards slice metrics_port serve_seconds
  with
  | Sys_error m -> fail m
  | Invalid_argument m -> fail m
  | Unix.Unix_error (e, fn, _) ->
    fail (Printf.sprintf "%s: %s" fn (Unix.error_message e))

let port_arg =
  Arg.(value & opt int 0 & info [ "p"; "port" ] ~docv:"PORT"
       ~doc:"Listen port for the wire protocol (0 binds an ephemeral \
             port, announced on stdout).")

let shards_arg =
  Arg.(value & opt int 1 & info [ "j"; "shards" ] ~docv:"N"
       ~doc:"$(docv) shards on $(docv) domains; the serving domain runs \
             shard 0.  Sessions are hashed to a shard.  Merged telemetry \
             and per-session transcripts do not depend on $(docv).")

let slice_arg =
  Arg.(value & opt int Daemon.default_slice & info [ "slice" ] ~docv:"INSTRS"
       ~doc:"Fairness quantum: instructions one session may run before \
             other sessions on its shard get a turn.")

let metrics_port_arg =
  Arg.(value & opt (some int) None & info [ "metrics-port" ] ~docv:"PORT"
       ~doc:"Also serve aggregated live telemetry as Prometheus text at \
             http://127.0.0.1:$(docv)/metrics (0 for ephemeral).")

let serve_for_arg =
  Arg.(value & opt float 30. & info [ "serve-for" ] ~docv:"SECONDS"
       ~doc:"Run the daemon loop for $(docv) seconds, then close \
             remaining sessions and exit.")

let connect_arg =
  Arg.(value & opt (some int) None & info [ "connect" ] ~docv:"PORT"
       ~doc:"Client mode: connect to a daemon on $(docv) and drive the \
             --script session, printing each reply line verbatim.")

let host_arg =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR"
       ~doc:"Daemon address for --connect.")

let script_arg =
  Arg.(value & opt (some file) None & info [ "script" ] ~docv:"FILE"
       ~doc:"dbp-wire/1 command script: one command per line, '#' \
             comments; «!open SID FILE STRATEGY OPT» reads mini-C \
             source from FILE client-side.")

let cmd =
  let doc = "data-breakpoint service daemon (dbp-wire/1)" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Multiplexes concurrent debug sessions over a line-delimited \
         wire protocol: open a program under an instrumentation \
         strategy, arm data breakpoints, run with fuel slicing (one \
         session cannot starve the rest), stream hit events, answer \
         retroactive last-writer/history/time-travel queries, and \
         report per-session or aggregated telemetry.";
      `P
        "Every reply carries the session id and a per-session sequence \
         number, so a session's transcript is deterministic and \
         byte-identical for every shard count.";
    ]
  in
  Cmd.v
    (Cmd.info "dbreakd" ~version:"1.4" ~doc ~man)
    Term.(
      const run_cmd $ port_arg $ shards_arg $ slice_arg $ metrics_port_arg
      $ serve_for_arg $ connect_arg $ host_arg $ script_arg)

(* Same exit-code contract as dbreak: 0 for --help/--version, 1 for a
   runtime failure reported by the tool itself ({!fail}), 2 for a
   usage error. *)
let () =
  exit
    (match Cmd.eval_value cmd with
    | Ok (`Ok code) -> code
    | Ok `Version | Ok `Help -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> 3)
