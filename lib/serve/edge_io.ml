(* The Unix side of {!Edge}: listener setup, nonblocking read and write
   loops, and the select loop both dbreakd edges run in. *)

let listen ?(host = Unix.inet_addr_loopback) ~port () =
  (* A write to a peer that reset would otherwise kill the process
     before [flush] sees EPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (host, port));
     Unix.listen sock 64;
     Unix.set_nonblock sock
   with e ->
     Unix.close sock;
     raise e);
  match Unix.getsockname sock with
  | Unix.ADDR_INET (_, p) -> (sock, p)
  | _ -> (sock, port)

let accept ?(max = max_int) lsock =
  let rec go n acc =
    if n <= 0 then List.rev acc
    else
      match Unix.accept ~cloexec:true lsock with
      | fd, _ ->
        Unix.set_nonblock fd;
        (* Replies are already batched into one write per pass; Nagle
           would hold a second write until the peer's delayed ACK. *)
        (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
        go (n - 1) (fd :: acc)
      | exception Unix.Unix_error _ -> List.rev acc
  in
  go max []

let read fd chunk feed =
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> `Eof
    | k -> if feed k then go () else `Over
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      `Open
    | exception Unix.Unix_error _ -> `Eof
  in
  go ()

let flush fd chunk edge =
  let rec go () =
    let n = Edge.stage edge chunk in
    n = 0
    ||
    match Unix.single_write fd chunk 0 n with
    | k ->
      Edge.sent edge k;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> true
    | exception Unix.Unix_error _ -> false
  in
  go ()

let close fd =
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let serve ~seconds ~fds ~poll =
  let until = Unix.gettimeofday () +. seconds in
  let rec go () =
    let now = Unix.gettimeofday () in
    if now < until then begin
      let reads, writes, wake_at = fds () in
      (try ignore (Unix.select reads writes [] (Float.max 0. (Float.min until wake_at -. now)))
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      if poll () then go ()
    end
  in
  go ()
