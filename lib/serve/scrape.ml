(* Poll-based metrics endpoint: a nonblocking listener and up to
   [max_conns] nonblocking connections, each a small state machine —
   read the request head, write one HTTP/1.0 response, linger, close —
   advanced by every [poll] as far as it goes without blocking.  The
   embedding run calls [poll] from a hook it already owns (dbreak's
   sampler, dbreakd's serving loop), so no peer can stall it. *)

type state =
  | Head  (* reading the request head *)
  | Reply  (* writing the response *)
  | Linger  (* response sent and half-closed: wait for the peer's close *)

type conn = { fd : Unix.file_descr; edge : Edge.t; mutable state : state }

type t = {
  sock : Unix.file_descr;
  port : int;
  metrics : unit -> string;
  chunk : Bytes.t;
  mutable conns : conn list;
  mutable closed : bool;
}

let head_cap = 2048
let max_conns = 16

(* Seconds a connection gets for its request head, then again for
   taking its response and closing. *)
let head_seconds = 1.0
let linger_seconds = 1.0

let create ?host ~port ~metrics () =
  let sock, port = Edge_io.listen ?host ~port () in
  { sock; port; metrics; chunk = Bytes.create 4096; conns = []; closed = false }

let port t = t.port

let http_response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
     close\r\n\r\n%s"
    status content_type (String.length body) body

(* [None]: the head never completed (over the cap, out of time, or cut
   off mid-line), which is a 400 that never reaches [metrics]. *)
let response t head =
  let first = List.hd (String.split_on_char '\n' (Option.value head ~default:"")) in
  match String.split_on_char ' ' (List.hd (String.split_on_char '\r' first)) with
  | [ "GET"; "/metrics"; _ ] ->
    http_response ~status:"200 OK"
      ~content_type:"text/plain; version=0.0.4; charset=utf-8"
      (t.metrics ())
  | [ "GET"; ("/" | "/index.html"); _ ] ->
    http_response ~status:"200 OK" ~content_type:"text/plain"
      (Printf.sprintf
         "dbp scrape endpoint\n\nGET /metrics  Prometheus exposition (port %d)\n"
         t.port)
  | [ "GET"; _; _ ] ->
    http_response ~status:"404 Not Found" ~content_type:"text/plain" "not found\n"
  | _ -> http_response ~status:"400 Bad Request" ~content_type:"text/plain" "bad request\n"

(* Advance [c] as far as it goes without blocking; [false] once it is
   done.  Request bytes left unread when the socket closes would turn
   the close into a reset that can discard the response, so after the
   response the connection half-closes and reads until the peer closes
   — bounded, like the head, by the connection's deadline. *)
let rec step t now c =
  match c.state with
  | Head -> (
    let head = ref None in
    let status =
      Edge_io.read c.fd t.chunk (fun k ->
          Edge.feed c.edge t.chunk k (fun h -> if !head = None then head := Some h)
          && !head = None)
    in
    match (!head, status) with
    | None, `Open when not (Edge.expired c.edge ~now) -> true
    | head, status ->
      let head = if head = None && status = `Eof then Edge.finish c.edge else head in
      Edge.add c.edge (response t head);
      Edge.set_deadline c.edge (now +. linger_seconds);
      c.state <- Reply;
      step t now c)
  | Reply ->
    Edge_io.flush c.fd t.chunk c.edge
    && (not (Edge.expired c.edge ~now))
    && (Edge.pending c.edge > 0
       || begin
            (try Unix.shutdown c.fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
            c.state <- Linger;
            step t now c
          end)
  | Linger ->
    Edge_io.read c.fd t.chunk (fun _ -> true) = `Open && not (Edge.expired c.edge ~now)

let poll t =
  if t.closed then 0
  else begin
    let now = Unix.gettimeofday () in
    let accept fd =
      let edge = Edge.create ~deadline:(now +. head_seconds) Edge.Head ~in_cap:head_cap ~out_cap:max_int in
      { fd; edge; state = Head }
    in
    let reading () = List.length (List.filter (fun c -> c.state = Head) t.conns) in
    t.conns <- t.conns @ List.map accept (Edge_io.accept ~max:(max_conns - List.length t.conns) t.sock);
    let before = reading () in
    t.conns <- List.filter (fun c -> step t now c || (Edge_io.close c.fd; false)) t.conns;
    before - reading ()
  end

(* The listener only while there is room to accept, so a full table
   does not spin the caller's [select]. *)
let fds t =
  if t.closed then ([], [], infinity)
  else
    List.fold_left
      (fun (r, w, d) c ->
        let d = Float.min d (Edge.deadline c.edge) in
        if c.state = Reply then (r, c.fd :: w, d) else (c.fd :: r, w, d))
      ((if List.length t.conns < max_conns then [ t.sock ] else []), [], infinity)
      t.conns

let close t =
  if not t.closed then begin
    t.closed <- true;
    List.iter (fun c -> Edge_io.close c.fd) t.conns;
    t.conns <- [];
    try Unix.close t.sock with Unix.Unix_error _ -> ()
  end

let serve_for t ~seconds =
  Edge_io.serve ~seconds ~fds:(fun () -> fds t) ~poll:(fun () -> ignore (poll t); not t.closed)
