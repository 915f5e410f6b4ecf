(** Phase-span tracer with Chrome [trace_event] export.

    Records begin/end spans for the pipeline phases
    (compile → lift → CFG/SSA → bounds → plan → instrument → run) and
    for per-domain benchmark work, then renders them as a Chrome
    trace-event JSON array — the format Perfetto and [chrome://tracing]
    load directly.

    Spans are strictly stack-bracketed per tracer ({!begin_span} /
    {!end_span} or the exceptions-safe {!with_span}), which makes
    well-nesting a structural invariant rather than a property to
    check.  One tracer per domain; {!to_chrome_json} merges several
    tracers into a single trace with one [tid] each.

    The clock is injected ([create ?clock]) so this library takes no
    Unix dependency; callers pass [Unix.gettimeofday] when they have
    it.  Timestamps are exported in integer microseconds relative to
    the earliest span, floor-rounded — a monotone mapping, so nesting
    survives quantization. *)

type span = {
  sp_name : string;
  sp_cat : string;  (** Chrome event category, e.g. ["pipeline"] *)
  sp_tid : int;
  sp_depth : int;  (** nesting depth at emission, 0 = top level *)
  sp_start : float;  (** clock value at {!begin_span} *)
  sp_dur : float;  (** seconds; always [>= 0] *)
  sp_args : (string * string) list;
}

type t

val create : ?enabled:(unit -> bool) -> ?clock:(unit -> float) -> unit -> t
(** A fresh tracer.  [enabled] gates every record (pass the telemetry
    registry's flag); [clock] defaults to [Sys.time].  Each tracer gets
    a fresh small thread id (atomic counter). *)

val begin_span : t -> ?cat:string -> ?args:(string * string) list -> string ->
  unit
(** Open a span.  Disabled tracers ignore the call (and the matching
    {!end_span}). *)

val end_span : t -> unit
(** Close the innermost open span and record it.  Unbalanced calls are
    ignored. *)

val with_span : t -> ?cat:string -> ?args:(string * string) list -> string ->
  (unit -> 'a) -> 'a
(** [with_span t name f] brackets [f] in a span; the span is recorded
    even when [f] raises. *)

val spans : t -> span list
(** Completed spans in completion order (children before parents). *)

val span_set : t list -> (string * int) list
(** Sorted [(name, count)] multiset of completed span names across
    tracers — the scheduling-independent shape used by the [-j1] vs
    [-j4] parity check. *)

val to_chrome_json :
  ?pid:int -> ?counters:(string * float * int) list -> t list -> Export.json
(** One Chrome trace: a JSON array of complete ([ph = "X"]) events,
    [ts]/[dur] in integer microseconds relative to the earliest span
    across all tracers {e and} counter samples.  [pid] defaults to [1].

    [counters] are [(track name, clock value, value)] samples —
    e.g. {!Profile.chrome_counters} — rendered as Chrome counter
    ([ph = "C"]) events on [tid 0] after the spans, sorted by
    [(name, ts)]; they share the span rebasing so [ts >= 0] holds
    across the whole trace. *)

val to_chrome_string :
  ?pid:int -> ?counters:(string * float * int) list -> t list -> string
