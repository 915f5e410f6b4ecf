(** The [Unix] side of {!Edge}, shared by dbreakd's wire listener
    ({!Daemon}) and its [/metrics] endpoint ({!Scrape}): one listener
    setup, nonblocking read and write loops, and one [select] loop.
    Nothing here blocks except {!serve}'s [select]. *)

val listen :
  ?host:Unix.inet_addr -> port:int -> unit -> Unix.file_descr * int
(** A nonblocking close-on-exec listener with [SO_REUSEADDR], bound to
    [host] (loopback by default) and [port] (0: an ephemeral port),
    and the port it got.  Sets the process's SIGPIPE disposition to
    ignore, so a write to a peer that reset fails with EPIPE instead
    of killing the process.
    @raise Unix.Unix_error when the bind fails. *)

val accept : ?max:int -> Unix.file_descr -> Unix.file_descr list
(** Accept pending connections, at most [max], without blocking.  Each
    is nonblocking, close-on-exec and sets [TCP_NODELAY]. *)

val read : Unix.file_descr -> Bytes.t -> (int -> bool) -> [ `Open | `Eof | `Over ]
(** [read fd chunk feed] reads into [chunk] until the socket would
    block ([`Open]), passing each read's length to [feed].  [`Eof] on
    end of stream or a read error, [`Over] as soon as [feed] returns
    [false]. *)

val flush : Unix.file_descr -> Bytes.t -> Edge.t -> bool
(** Write the edge's pending bytes, staged through [chunk], until the
    socket would block or nothing is pending.  [false] when the peer is
    gone (a write error other than EAGAIN); the bytes stay pending. *)

val close : Unix.file_descr -> unit
(** Shut down and close, ignoring errors. *)

val serve :
  seconds:float ->
  fds:(unit -> Unix.file_descr list * Unix.file_descr list * float) ->
  poll:(unit -> bool) ->
  unit
(** For up to [seconds]: [select] on [fds ()] (read set, write set, and
    the absolute time of the next deadline, [infinity] for none), then
    [poll ()]; stop early once [poll] returns [false]. *)
