(** [dbp-wire/1] — the daemon's machine-independent command codec.

    Line-delimited frames in the spirit of Hanson's revisited debugger
    protocol: one command or reply per newline-terminated line, fields
    separated by single spaces, arbitrary strings (program sources,
    telemetry JSON, error messages) carried as percent-escaped tokens
    so any byte sequence survives the wire.  Every reply and event
    carries the session id it belongs to and a per-session
    monotonically increasing sequence number, which makes a session's
    reply stream a deterministic, diffable transcript — the property
    the service bench and the [-j] parity tests lean on.

    Client-level frames (the [hello] greeting and errors about frames
    that never reached a session) use the reserved session id ["-"]
    with the client's own sequence counter. *)

(** {1 Token escaping} *)

val escape : string -> string
(** Render an arbitrary string as one space-free token: [%], space,
    newline, carriage return and bytes outside printable ASCII become
    [%XX] (two uppercase hex digits); the empty string becomes the
    two-byte token ["%z"] (unambiguous — [z] is not a hex digit). *)

val unescape : string -> (string, string) result
(** Inverse of {!escape}; [Error] on a dangling or non-hex escape. *)

(** {1 Commands} *)

type source =
  | Workload of string  (** a registered benchmark, by {!Workloads.Spec} name *)
  | Program of string   (** inline mini-C source (escaped on the wire) *)

type target =
  | Var of string                       (** a global, resolved server-side *)
  | Region of { lo : int; len : int }   (** a raw byte range *)

type command =
  | Hello
  | Open of { sid : string; source : source; strategy : string; opt : string }
  | Arm of { sid : string; target : target }
  | Disarm of { sid : string; name : string }
  | Run of { sid : string; fuel : int }
  | Query_last_write of { sid : string; target : string }
  | Query_history of { sid : string; target : string; len : int }
  | Travel of { sid : string; insn : int }
  | Report of { sid : string }
  | Verify of { sid : string }
  | Close of { sid : string }

val command_sid : command -> string option
(** The session a command addresses ([None] for [Hello]). *)

val encode_command : command -> string
(** One line, no trailing newline. *)

val decode_command : string -> (command, string) result
(** Parse one frame; [Error] explains the malformation (unknown verb,
    arity mismatch, bad integer, bad escape, bad target kind). *)

(** {1 Replies and events} *)

type reply_body =
  | Hello_ok                        (** [hello dbp-wire/1] *)
  | Opened of { name : string; strategy : string; opt : string }
  | Armed of { name : string; lo : int; len : int }
  | Disarmed of { name : string }
  | Running of { executed : int }   (** fuel exhausted; session still live *)
  | Exited of { code : int; executed : int; output : string }
  | Hit of {
      name : string;
      insn : int;
      pc : int;
      addr : int;
      value : int;
      func : string;
    }  (** async event streamed while a [run] command executes *)
  | Last_write of {
      target : string;
      addr : int;
      insn : int;
      pc : int;
      old_v : int;
      new_v : int;
      wtype : string;
      func : string;
    }
  | Never_written of { target : string; addr : int }
  | History of { count : int }
      (** followed by exactly [count] [Write] frames *)
  | Write of {
      insn : int;
      pc : int;
      addr : int;
      old_v : int;
      new_v : int;
      wtype : string;
    }
  | Traveled of { insn : int; reexecuted : int; pc : int }
  | Report_json of string           (** telemetry report JSON, escaped *)
  | Verified of { total : int; proved : int; refuted : int; unknown : int }
  | Closed
  | Error of string

type reply = { r_sid : string; r_seq : int; r_body : reply_body }

val encode_reply : reply -> string
val decode_reply : string -> (reply, string) result

val terminal : reply_body -> bool
(** Whether this frame completes a command from the client's point of
    view: everything but [Hit] and [Write] (and [History], which
    announces the [Write] frames still owed). *)
