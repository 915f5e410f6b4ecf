(** Minimal live-metrics scrape endpoint.

    A single nonblocking listening socket answering [GET /metrics] with
    whatever the [metrics] callback renders (normally
    [Export.to_prometheus] over a live session report).  Poll-based and
    single-threaded: nothing happens between {!poll} calls, so the
    embedding run drives it from a hook it already owns — dbreak wires
    {!poll} into the time-series sampler, bounding scrape latency to
    one sampling interval.  No dependencies beyond [Unix]; this is the
    wire-endpoint skeleton the dbreakd service daemon grows from.

    Unknown paths get 404, [/] a small text index, malformed requests
    400; every response closes the connection.  A request head that
    never completes is also 400, never dispatched: the head is capped
    at 2 KiB, each read is bounded by a 0.5 s receive timeout, and the
    whole head gets at most 1 s — so an oversized request line or a
    slow-loris drip cannot hold the embedding run hostage, while
    sloppy clients that close after the request line (no terminating
    blank line) are still served. *)

type t

val create :
  ?host:Unix.inet_addr ->
  ?backlog:int ->
  port:int ->
  metrics:(unit -> string) ->
  unit ->
  t
(** Bind and listen ([host] defaults to loopback).  [port = 0] binds an
    ephemeral port — read it back with {!port}.  The [metrics] callback
    runs once per [/metrics] request, on the {!poll}er's stack.  Sets
    the process's SIGPIPE disposition to ignore, so a scraper that
    resets before its reply is written costs only that request instead
    of killing the process.
    @raise Unix.Unix_error when the bind fails (e.g. port in use). *)

val port : t -> int

val fd : t -> Unix.file_descr
(** The listening socket: readable when a request is waiting, for an
    embedding [select] loop that calls {!poll} then. *)

val served : t -> int
(** Requests answered so far. *)

val poll : ?max_requests:int -> t -> int
(** Accept and answer every pending connection (up to [max_requests],
    default 16); returns the number handled.  Never blocks waiting for
    new connections; a connected client gets at most 0.5 s to deliver
    its request line. *)

val serve_for : t -> seconds:float -> unit
(** Block answering requests until [seconds] elapse — the post-run
    linger window for one-shot scrapes (CI curl). *)

val close : t -> unit
(** Close the listening socket; further {!poll}s answer nothing.
    Idempotent. *)
