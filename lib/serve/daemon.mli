(** dbreakd's engine: concurrent debug sessions multiplexed over
    dbp-wire/1, sharded across domains by {!Sched}.

    The engine separates frame {e routing} (main thread: parse, session
    table, client-level replies under sid ["-"]) from command
    {e execution} (the session's shard domain, in arrival order — which
    is what makes each session's reply stream, sequence numbers and
    telemetry independent of the shard count).  Long [run] commands are
    executed in fuel slices and re-posted behind other sessions' work,
    so one session cannot starve a shard.

    Two front ends sit on top: the in-process {!client}/{!submit}/
    {!output} API (tests, bench loopback driver) and the TCP listener
    ({!listen}/{!server_poll}/{!serve_for}). *)

type t
(** The engine: scheduler, session table, daemon telemetry registry. *)

val default_slice : int
(** Fairness quantum (instructions per [run] slice): 50k. *)

val create : ?shards:int -> ?slice:int -> unit -> t
(** Spawn the shard pool.  [slice] overrides {!default_slice}. *)

val shards : t -> int

(** {1 In-process clients} *)

type client
(** One command source with a private reply outbox.  Replies to frames
    that never reached a session (the [hello] greeting, parse errors,
    unknown-session errors) arrive under the reserved sid ["-"] with a
    per-client sequence; session replies carry the session's own
    monotone sequence. *)

val client : t -> client

val submit : t -> client -> string -> unit
(** Route one frame (a line, no terminator).  Client-level replies are
    pushed synchronously; session commands are posted to the session's
    shard and their replies arrive in the outbox asynchronously. *)

val output : client -> string list
(** Drain the client's outbox (encoded reply lines, in emission
    order). *)

val close_client : t -> client -> unit
(** Close every session the client still owns (absorbing their
    telemetry into the shard sinks), as on TCP disconnect. *)

val drain : t -> unit
(** Block until all posted commands (and re-posted run slices) have
    executed.  After [drain], outboxes and {!merged_report} are
    quiescent and deterministic. *)

val sessions_open : t -> int

val merged_report : t -> Telemetry.report
(** Daemon registry (commands served, sessions-open gauge) + shard
    sinks (closed sessions) + every live session's report, folded with
    the commutative {!Telemetry.merge} — quiescent reads are
    byte-identical across shard counts. *)

val metrics_body : t -> string
(** {!merged_report} rendered for [GET /metrics]. *)

val shutdown : t -> unit
(** Drain and join the shard domains, then close the engine's wake
    pipe.  Idempotent. *)

(** {1 TCP front end} *)

type server

val listen :
  ?host:Unix.inet_addr -> ?backlog:int -> t -> port:int -> unit -> server
(** Bind a nonblocking listener (port 0 for ephemeral — read it back
    with {!server_port}).  Loopback by default.  Sets the process's
    SIGPIPE disposition to ignore, so a peer that resets costs only its
    own connection (the write fails with EPIPE and the connection is
    reaped) instead of killing the process. *)

val server_port : server -> int

val server_poll : server -> unit
(** One nonblocking pass: consume the engine's wake (empty the pipe,
    then clear the wake-pending flag, so a reply pushed during this pass
    wakes the next [select]), accept pending connections, read available
    bytes (feeding complete frames to {!submit}), flush outboxes (bytes
    the socket does not take stay queued), reap disconnected peers
    (closing their sessions). *)

val server_fds : server -> Unix.file_descr list
(** Fds to wait on for reading before the next {!server_poll}: the
    engine's wake fd — readable once a shard job has pushed replies —
    the listener, and every connection still reading.  A [select] on
    these wakes as soon as there is a reply to flush. *)

val serve_for : ?scrape:Scrape.t -> server -> seconds:float -> unit
(** The daemon's event loop, for a bounded duration: [select] on
    {!server_fds}, on [scrape]'s listener, and for writing on every
    connection with unsent bytes; then {!server_poll} and
    {!Scrape.poll}.  No timer: replies go out as soon as a shard
    produces them. *)

val server_close : server -> unit
(** Final poll, then close every connection (closing its sessions) and
    the listener.  Does not {!shutdown} the engine. *)
