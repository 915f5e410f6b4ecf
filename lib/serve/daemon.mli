(** dbreakd's engine: concurrent debug sessions multiplexed over
    dbp-wire/1, sharded across domains by {!Sched}.

    The engine separates frame {e routing} (main thread: parse, session
    table, client-level replies under sid ["-"]) from command
    {e execution} (the session's shard domain, in arrival order — which
    is what makes each session's reply stream, sequence numbers and
    telemetry independent of the shard count).  Every verb that executes
    instructions — [run], [query], [travel] — runs in fuel slices
    re-posted behind other sessions' work, so one session cannot starve
    a shard.

    The main thread is shard 0's domain ({!Sched}): it runs shard 0's
    jobs one per {!server_poll}, between socket passes, and all of them
    in {!drain}.  [n] shards therefore run on [n] domains.  Call every
    function here from the domain that called {!create}.  An [open] or
    [verify] on shard 0 runs as one job (a few ms, DESIGN §13).

    Two front ends sit on top: the in-process {!client}/{!submit}/
    {!output} API (tests, bench loopback driver) and the TCP listener
    ({!listen}/{!server_poll}/{!serve_for}). *)

type t
(** The engine: scheduler, session table, daemon telemetry registry. *)

val default_slice : int
(** Fairness quantum (instructions per slice): 50k. *)

val create : ?shards:int -> ?slice:int -> unit -> t
(** Create the shard pool: the calling domain runs shard 0, and
    [shards - 1] worker domains are spawned.  [slice] overrides
    {!default_slice}. *)

val shards : t -> int

(** {1 In-process clients} *)

type client
(** One command source with a private reply outbox.  Replies to frames
    that never reached a session (the [hello] greeting, parse errors,
    unknown-session errors) arrive under the reserved sid ["-"] with a
    per-client sequence; session replies carry the session's own
    monotone sequence.  A client whose outbox grows past 32 MiB is
    treated as disconnected ({!close_client}): the line that crossed
    the cap and every later one are dropped. *)

val client : t -> client

val submit : t -> client -> string -> unit
(** Route one frame (a line, no terminator).  Client-level replies are
    pushed synchronously; session commands are posted to the session's
    shard and their replies arrive in the outbox asynchronously (for
    shard 0, once the caller runs {!server_poll} or {!drain}). *)

val output : client -> string list
(** Drain the client's outbox (encoded reply lines, in emission
    order). *)

val close_client : t -> client -> unit
(** The client is gone, as on TCP disconnect: later replies to it are
    dropped, and every session it owns closes at its next step, on
    whichever shard — a parked sliced verb is dropped rather than run
    out, and the session's telemetry so far is absorbed into its shard
    sink.  So a [run] with any fuel stops within one slice of the
    close. *)

val drain : t -> unit
(** Run shard 0's posted commands inline, then block until all posted
    commands (and re-posted run slices) have executed.  After [drain],
    outboxes and {!merged_report} are quiescent and deterministic. *)

val sessions_open : t -> int

val merged_report : t -> Telemetry.report
(** Daemon registry (commands served, sessions-open gauge) + shard
    sinks (closed sessions) + every live session's report, folded with
    the commutative {!Telemetry.merge} — quiescent reads are
    byte-identical across shard counts. *)

val metrics_body : t -> string
(** {!merged_report} rendered for [GET /metrics], followed by the
    [dbreakd_job_failures_total] counter ({!Sched.failures}). *)

val sched : t -> Sched.t
(** The engine's shard pool (tests post jobs on it directly). *)

val shutdown : t -> unit
(** Drain and join the worker domains, then close the engine's wake
    pipe.  Idempotent. *)

(** {1 TCP front end} *)

type server

val listen :
  ?host:Unix.inet_addr -> t -> port:int -> unit -> server
(** Bind a nonblocking listener with {!Edge_io.listen} (port 0 for
    ephemeral — read it back with {!server_port}).  Loopback by
    default.  SIGPIPE is ignored, so a peer that resets costs only its
    own connection (the write fails with EPIPE and the connection is
    reaped) instead of killing the process.  Every accepted connection
    sets [TCP_NODELAY]: the daemon already writes each connection's
    pending replies once per {!server_poll}, and Nagle's algorithm would
    otherwise hold a second write until the peer's delayed ACK (~40 ms
    on Linux). *)

val server_port : server -> int

val server_poll : server -> unit
(** One nonblocking pass: consume the engine's wake (empty the pipe,
    then clear the wake-pending flag, so a reply pushed during this pass
    wakes the next [select]), accept pending connections, read available
    bytes (feeding complete frames to {!submit}), run at most one
    shard-0 job (one slice or one other verb), flush outboxes
    (bytes the socket does not take stay queued), reap disconnected
    peers ({!close_client}).  While shard 0 still has queued
    work after the pass, it leaves a wake in the pipe, so a caller's
    [select] on {!server_fds} returns at once.  Each connection runs on
    {!Edge}'s core, with two caps.  One whose unterminated frame grows
    past 1 MiB gets one client-level [error] reply and is then reaped
    as on EOF.  One that leaves more than 32 MiB of replies unsent (it
    stopped reading) is reaped like a peer reset, its pending bytes
    dropped. *)

val server_fds : server -> Unix.file_descr list
(** Fds to wait on for reading before the next {!server_poll}: the
    engine's wake fd — readable once a shard job has pushed replies,
    or while shard 0 has queued work — the listener, and every
    connection still reading.  A [select] on these wakes as soon as
    there is a reply to flush or a shard-0 job to run. *)

val serve_for : ?scrape:Scrape.t -> server -> seconds:float -> unit
(** The daemon's event loop ({!Edge_io.serve}), for a bounded duration:
    one [select] on {!server_fds} and [scrape]'s {!Scrape.fds}, for
    writing on every connection with unsent bytes, and until the
    earliest scrape deadline; then {!server_poll} and {!Scrape.poll},
    neither of which blocks.  No timer: replies go out as soon as a shard
    produces them.  While shard 0 has queued work the wake fd stays
    readable, so the loop alternates one shard-0 job with one socket
    pass; socket I/O waits for at most one job. *)

val server_close : server -> unit
(** Final poll, then close every connection (closing its sessions) and
    the listener.  Does not {!shutdown} the engine. *)
