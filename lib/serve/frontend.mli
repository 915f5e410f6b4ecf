(** The vocabulary dbreak and dbreakd share, so that both speak with
    one voice: the export-path funnel, the [-O] level names and the
    one-line message for every failure a session can raise. *)

val read_file : string -> string
(** Whole-file read (binary). *)

val export : string option -> (unit -> string) -> unit
(** [export (Some path) render] writes [render ()] to [path]; [None] is
    a no-op (the flag was not given).  An unwritable path raises
    [Sys_error], which each front end's one handler reports as a
    one-line message with exit code 1 (pinned by bin/dune's runtest
    rules). *)

val parse_opt : string -> (Dbp.Instrument.opt_level, string) result
(** [none]/[0], [symbol]/[sym] or [full]/[loop]. *)

val opt_name : Dbp.Instrument.opt_level -> string
(** [none], [symbol] or [full]. *)

val unresolved_target : string -> string
(** The message for a target that names no data address. *)

val error_message : exn -> string option
(** The one-line message for an exception the session machinery raises
    ([Sys_error], [Invalid_argument], [Failure], a replay divergence, a
    compile error, a machine fault, running out of fuel, an unknown
    variable, an invalid or overlapping region, exhausted hardware
    watchpoints); [None] for any other exception. *)
