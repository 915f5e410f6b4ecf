(* Minimal poll-based metrics endpoint.  One nonblocking listening
   socket; [poll] drains whatever connections are pending, answers
   each with one HTTP/1.0 response, and returns — no threads, no
   event loop, no dependencies beyond Unix.  The embedding run calls
   [poll] from a hook it already owns (the dispatch-loop sampler), so
   a scrape is answered within one sampling interval.

   This is deliberately the smallest wire skeleton that Prometheus
   (or curl) can talk to; the dbreakd service daemon grows from here. *)

type t = {
  sock : Unix.file_descr;
  port : int;
  metrics : unit -> string;
  mutable served : int;
  mutable closed : bool;
}

let create ?(host = Unix.inet_addr_loopback) ?(backlog = 16) ~port ~metrics ()
    =
  (* A write to a scraper that reset would otherwise kill the process
     before [respond] sees EPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (host, port));
     Unix.listen sock backlog;
     Unix.set_nonblock sock
   with e ->
     Unix.close sock;
     raise e);
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  { sock; port; metrics; served = 0; closed = false }

let port t = t.port
let fd t = t.sock
let served t = t.served

let index_body t =
  Printf.sprintf
    "dbp scrape endpoint\n\nGET /metrics  Prometheus exposition (port %d)\n"
    t.port

let http_response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
     close\r\n\r\n%s"
    status content_type (String.length body) body

let respond t conn =
  (* Read until the blank line ending the request head, the bounded
     buffer fills, or an overall deadline passes: leaving request bytes
     unread would turn the close below into a reset that can discard
     the in-flight response, but an attacker must not be able to hold
     the simulated run hostage either.  A head that never completes —
     oversized (> buffer), stalled mid-line (slow-loris: SO_RCVTIMEO
     fires), or out of deadline — is answered 400 and never dispatched;
     a clean EOF after a complete first line (sloppy clients that skip
     the blank line) is still served. *)
  let buf = Bytes.create 2048 in
  let filled = ref 0 in
  let eof = ref false in
  let stalled = ref false in
  let deadline = Unix.gettimeofday () +. 1.0 in
  let head_done () =
    let s = Bytes.sub_string buf 0 !filled in
    let rec find i =
      i + 4 <= String.length s
      && (String.sub s i 4 = "\r\n\r\n" || find (i + 1))
    in
    find 0
  in
  (try
     while
       (not (head_done ()))
       && (not !eof)
       && !filled < Bytes.length buf
       && Unix.gettimeofday () < deadline
     do
       let k = Unix.read conn buf !filled (Bytes.length buf - !filled) in
       if k = 0 then eof := true else filled := !filled + k
     done
   with _ -> stalled := true);
  let request = Bytes.sub_string buf 0 !filled in
  let first_line =
    match String.index_opt request '\r' with
    | Some i -> String.sub request 0 i
    | None -> (
      match String.index_opt request '\n' with
      | Some i -> String.sub request 0 i
      | None -> request)
  in
  let complete =
    (* Dispatchable: terminated head, or clean EOF with at least a full
       first line.  Everything else (buffer cap hit with no terminator,
       read timeout, deadline) is a malformed or hostile request. *)
    head_done ()
    || (!eof && (not !stalled) && String.length first_line < !filled)
  in
  let reply =
    match
      if complete then String.split_on_char ' ' first_line else [ "" ]
    with
    | [ "GET"; "/metrics"; _ ] ->
      http_response ~status:"200 OK"
        ~content_type:"text/plain; version=0.0.4; charset=utf-8"
        (t.metrics ())
    | [ "GET"; ("/" | "/index.html"); _ ] ->
      http_response ~status:"200 OK" ~content_type:"text/plain" (index_body t)
    | [ "GET"; _; _ ] ->
      http_response ~status:"404 Not Found" ~content_type:"text/plain"
        "not found\n"
    | _ ->
      http_response ~status:"400 Bad Request" ~content_type:"text/plain"
        "bad request\n"
  in
  let len = String.length reply in
  let sent = ref 0 in
  (try
     while !sent < len do
       sent := !sent + Unix.write_substring conn reply !sent (len - !sent)
     done;
     (* Lingering close: announce end-of-response, then wait (bounded
        by the receive timeout) for the peer to finish reading — a
        straight close with anything unread would reset the
        connection mid-response. *)
     Unix.shutdown conn Unix.SHUTDOWN_SEND;
     let scratch = Bytes.create 256 in
     while Unix.read conn scratch 0 (Bytes.length scratch) > 0 do
       ()
     done
   with _ -> ());
  t.served <- t.served + 1

let poll ?(max_requests = 16) t =
  if t.closed then 0
  else begin
    let handled = ref 0 in
    (try
       while !handled < max_requests do
         let conn, _ = Unix.accept t.sock in
         (* Bound the per-request read so a stalled client cannot hang
            the simulated run for more than a beat. *)
         Unix.clear_nonblock conn;
         (try Unix.setsockopt_float conn Unix.SO_RCVTIMEO 0.5 with _ -> ());
         Fun.protect
           ~finally:(fun () -> try Unix.close conn with _ -> ())
           (fun () -> respond t conn);
         incr handled
       done
     with
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
    | Unix.Unix_error _ -> ());
    !handled
  end

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.sock with _ -> ()
  end

(* Convenience: block for up to [seconds] answering requests — the
   post-run linger dbreak offers so one-shot CI scrapes have a window
   to land after the simulated program exits. *)
let serve_for t ~seconds =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec go () =
    let now = Unix.gettimeofday () in
    if now < deadline && not t.closed then begin
      (try
         let r, _, _ =
           Unix.select [ t.sock ] [] [] (min 0.2 (deadline -. now))
         in
         if r <> [] then ignore (poll t)
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      go ()
    end
  in
  go ()
