(** Shared CLI export-path helper — the single
    "write-or-exit-1-one-line" funnel both dbreak and dbreakd use for
    their export flags.

    [export path_opt render] renders and writes only when the flag was
    given; an unwritable path raises [Sys_error], which each front
    end's one handler reports as a one-line message with exit code 1
    (pinned by bin/dune's runtest rules). *)

val read_file : string -> string
(** Whole-file read (binary). *)

val export : string option -> (unit -> string) -> unit
(** [export (Some path) render] = [write_file path (render ())];
    [None] is a no-op (the flag was not given). *)
