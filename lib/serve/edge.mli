(** One connection's framing and flow control, with no I/O.

    Bytes read from the peer go in and frames come out; replies go in
    and the bytes to write come out, {!sent} advancing past what the
    socket took.  Each direction has a cap, and the connection has a
    deadline checked against a [now] the caller passes in.  dbreakd's
    wire listener ({!Daemon}) and the [/metrics] endpoint ({!Scrape})
    both run on this core, through {!Edge_io}. *)

type framing =
  | Lines  (** newline-terminated frames, CR LF or LF, blank lines skipped *)
  | Head  (** an HTTP request head: the lines before the first blank one *)

type t

val create : ?deadline:float -> framing -> in_cap:int -> out_cap:int -> t
(** [deadline] defaults to [infinity]. *)

val feed : t -> Bytes.t -> int -> (string -> unit) -> bool
(** [feed t chunk k f] frames the first [k] bytes of [chunk], calling [f]
    on each frame they complete, in order.  Only these bytes are scanned.
    A [Lines] frame excludes its terminator; a [Head] frame keeps its
    lines' terminators and excludes the blank line.  Returns [false],
    and drops the buffered input, once more than [in_cap] bytes are
    buffered without completing a frame. *)

val finish : t -> string option
(** At end of input: a [Head] whose first line is complete, as a frame
    (a client may close without sending the blank line).  [None] for
    [Lines]: an unterminated line is never a frame. *)

val add : t -> string -> unit
(** Queue bytes to write. *)

val add_line : t -> string -> unit
(** Queue a line and its ['\n']. *)

val pending : t -> int
(** Bytes queued and not yet {!sent}. *)

val over : t -> bool
(** [pending t > out_cap]. *)

val stage : t -> Bytes.t -> int
(** Copy the next pending bytes, at most the chunk's length, to the
    front of the chunk; returns how many. *)

val sent : t -> int -> unit
(** The socket took the first [k] staged bytes. *)

val drop : t -> unit
(** Forget every pending byte (the peer is gone). *)

val set_deadline : t -> float -> unit
val deadline : t -> float

val expired : t -> now:float -> bool
(** [now >= deadline t]. *)
