(** Rendering of telemetry {!Telemetry.report} snapshots.

    Three formats: human-readable text (for [dbreak --stats] and the
    bench telemetry table), versioned JSON (the dbreakd [report]
    reply), and Prometheus-style exposition text
    ([dbreak --metrics FILE]).

    The JSON side is a self-contained mini JSON library (the repository
    takes no external dependencies): objects preserve key order, so a
    report survives [to_json] → [print] → [parse] → [of_json]
    unchanged — the round-trip property the test suite checks. *)

(** {1 Minimal JSON} *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | List of json list
  | Obj of (string * json) list  (** key order is significant *)

exception Parse_error of string

val json_to_string : ?indent:int -> json -> string
(** [indent] > 0 pretty-prints with that step; default compact. *)

val json_of_string : string -> json
(** @raise Parse_error on malformed input.  Accepts the subset this
    module emits (no floats, no unicode escapes beyond [\uXXXX] of
    ASCII). *)

(** {1 Report renderers} *)

val to_json : Telemetry.report -> json

val of_json : json -> Telemetry.report
(** @raise Parse_error when the value does not match
    {!Telemetry.schema_version}'s layout. *)

val to_json_string : ?indent:int -> Telemetry.report -> string
val of_json_string : string -> Telemetry.report

val to_prometheus : Telemetry.report -> string
(** Prometheus exposition text: one family per scalar counter,
    write-type-keyed counters with a [write_type] label, per-site
    counters with [site]/[write_type]/[kind] labels, and the v5
    time-series families ([dbp_timeseries_interval_instrs],
    [dbp_timeseries_samples_retained]/[_dropped] and one
    [dbp_timeseries_last{metric="…"}] gauge per sampled metric).
    Report tags become labels on every line.  Each family is announced
    by [# HELP]/[# TYPE] lines and emits its samples contiguously, per
    the exposition format. *)

val to_text : Telemetry.report -> string
(** Aligned human-readable summary: tags, non-zero counters, write-type
    breakdowns, hot sites and the retained trace events. *)
