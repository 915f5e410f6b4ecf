(** Minimal live-metrics scrape endpoint.

    A nonblocking listener answering [GET /metrics] with whatever the
    [metrics] callback renders (normally [Export.to_prometheus] over a
    live report).  Poll-based and single-threaded: nothing happens
    between {!poll} calls, and no call blocks, so the embedding run
    drives it from a loop or hook it already owns — dbreak from the
    time-series sampler (a scrape waits at most one sampling interval),
    dbreakd from its serving loop.  No dependencies beyond [Unix].

    Unknown paths get 404, [/] a small text index, malformed requests
    400; every response closes the connection.  Each connection runs on
    {!Edge}'s core: its request head is capped at 2 KiB and must arrive
    within 1 s of the accept, or it is answered 400 and never reaches
    [metrics].  A client that closes after a complete request line,
    without the blank line, is still served.  The response is followed
    by a lingering close (half-close, then read until the peer closes),
    and the connection is closed 1 s after its response was queued
    whatever the peer does.  At most 16 connections are open at once;
    later ones wait in the listen backlog. *)

type t

val create :
  ?host:Unix.inet_addr ->
  port:int ->
  metrics:(unit -> string) ->
  unit ->
  t
(** Bind and listen ([host] defaults to loopback) through
    {!Edge_io.listen}.  [port = 0] binds an ephemeral port — read it
    back with {!port}.  The [metrics] callback runs once per [/metrics]
    request, on the {!poll}er's stack.
    @raise Unix.Unix_error when the bind fails (e.g. port in use). *)

val port : t -> int

val fds : t -> Unix.file_descr list * Unix.file_descr list * float
(** What an embedding [select] should wait on before the next {!poll}:
    the fds to read (the listener while there is room, connections
    reading a head or lingering), the fds to write (connections with
    response bytes pending), and the earliest connection deadline
    ([infinity] when none is open). *)

val poll : t -> int
(** Accept pending connections and advance every open one as far as it
    goes without blocking; returns how many got their response queued
    during this call.  A head that has not completed by its deadline is
    answered 400 by the first [poll] after it. *)

val serve_for : t -> seconds:float -> unit
(** Block answering requests until [seconds] elapse — the post-run
    linger window for one-shot scrapes (CI curl). *)

val close : t -> unit
(** Close the listener and every open connection; further {!poll}s
    answer nothing.  Idempotent. *)
