(** N-domain session shard pool.

    bench/pool.ml's per-domain commutative-sink pattern, promoted into
    a reusable scheduler for the service daemon: sessions are hashed to
    a shard by session id, every job posted under a key runs on that
    shard's domain in post order (a session's commands stay sequential;
    distinct sessions run in parallel), and long commands achieve
    round-robin fairness by executing one fuel slice and re-posting
    their continuation behind other sessions' queued work.

    [n] shards run on [n] domains.  Shard 0 belongs to the domain that
    called {!create} (the daemon's serving loop): its jobs run only
    when that domain calls {!run_local} or {!drain}.  Shards 1..n-1
    each get a spawned worker domain.  No domain sits idle beside the
    workers, so a stop-the-world minor collection never waits for one
    that has no CPU.

    Each shard owns a telemetry sink registry; {!merged_report} folds
    the sinks with the commutative {!Telemetry.merge}, so merged
    telemetry is byte-identical for every shard count. *)

type t

val create : ?shards:int -> unit -> t
(** [shards] shards (default 1, min 1): the calling domain owns shard
    0, and [shards - 1] worker domains are spawned for the rest.
    [~shards:1] spawns none. *)

val shards : t -> int

val shard_of : t -> string -> int
(** Stable key → shard hash (same mapping for a given shard count on
    every run). *)

val post : t -> key:string -> (unit -> unit) -> unit
(** Enqueue a job on [key]'s shard.  Jobs with the same key run in post
    order, on the same domain.
    @raise Invalid_argument after {!shutdown}. *)

val run_local : t -> bool
(** Pop and run one shard-0 job on the owning domain; [false] if shard
    0's queue was empty.  A job that raises is counted in {!failures},
    as on a worker.
    @raise Invalid_argument on any domain but the creator's, so shard
    0 never runs two jobs at once. *)

val local_pending : t -> bool
(** Shard 0 has queued jobs: its owner should {!run_local} again
    before blocking. *)

val drain : t -> unit
(** Run shard 0's queue inline, then block until every queue is empty
    and every worker idle — including continuations the jobs re-post
    while draining.
    @raise Invalid_argument on any domain but the creator's. *)

val sink : t -> shard:int -> Telemetry.t
(** The shard's telemetry sink.  Only jobs running on that shard may
    write to it; read it quiescently (after {!drain}). *)

val merged_report : t -> Telemetry.report
(** Commutative merge over the shard sinks. *)

val failures : t -> int
(** Jobs that escaped with an exception (backstop counter; the daemon
    converts command errors to error replies before they get here). *)

val shutdown : t -> unit
(** {!drain}, then stop and join every worker.  Idempotent.  Call it
    on the creating domain. *)
