(** In-run time-series sampling: periodic snapshots of registry
    counters along the instruction-count axis.

    A sampler is armed over a {!Telemetry.t} registry with a metric
    set — named closures reading live counter values — and an interval
    in executed instructions.  The interpreter's dispatch hook calls
    {!sample} every [every]th instruction; each call appends one
    {!Telemetry.sample} (instruction count → metric values) to the
    registry's preallocated sample ring and one point per metric to a
    wall-clock Perfetto counter track ({!chrome_counters}, mergeable
    into the Chrome trace via [Trace.to_chrome_json ~counters]).

    Samples carry instruction counts only — wall-clock time never
    enters a {!Telemetry.report}, so merged exports stay byte-identical
    across [-j] worker scheduling.  The windowed summaries
    ({!summarize}) derive peak/mean rates per fixed instruction window
    from a report after the fact. *)

type metric = {
  m_name : string;          (** stable snake_case series name *)
  m_read : unit -> int;     (** live value, read at each sample *)
}

type t

val create :
  ?clock:(unit -> float) ->
  every:int ->
  registry:Telemetry.t ->
  metrics:metric list ->
  unit ->
  t
(** Arm a sampler: replaces [registry]'s sample ring with one of 4096
    slots and records the interval/metric-set metadata.  [clock] feeds
    only the Chrome counter tracks and defaults to a constant
    (deterministic exports).
    @raise Invalid_argument when [every < 1]. *)

val sample : t -> insn:int -> unit
(** Take one snapshot at instruction count [insn].  Monotonic: calls
    with [insn] not above the last sampled count are no-ops, which
    makes {!finalize} idempotent. *)

val finalize : t -> insn:int -> unit
(** Record the end-of-run sample so the ring's last entry equals the
    final registry values (the conservation property the tests check).
    Safe to call repeatedly. *)

val chrome_counters : t -> (string * float * int) list
(** Accumulated counter-track points [("ts:<metric>", seconds, value)]
    for [Trace.to_chrome_json ~counters]. *)

(** {1 Windowed rate summaries} *)

type summary = {
  ws_metric : string;
  ws_window : int;       (** instructions per window *)
  ws_windows : int;      (** windows covering the sampled run *)
  ws_total : int;        (** final cumulative value *)
  ws_peak : int;         (** largest per-window increment *)
  ws_peak_window : int;  (** index of the peak window *)
}

val summarize : ?window:int -> Telemetry.report -> summary list
(** Per-metric windowed rates derived from a report's sample ring, one
    summary per metric in [r_sample_metrics] order, over windows of
    [window] instructions (default 100_000).  Empty when the report
    holds no samples.  @raise Invalid_argument when [window < 1]. *)

val schema_version : string
(** ["dbp-timeseries/1"]. *)

val to_json : ?window:int -> Telemetry.report -> Export.json
val to_json_string : ?window:int -> Telemetry.report -> string
(** The [dbp-timeseries/1] document: sampling metadata, the full sample
    ring, and the windowed summaries.  Integer-only and derived from
    the report alone, so it is byte-identical across [-j]. *)

val summary_text : ?window:int -> Telemetry.report -> string
(** Aligned integer-only summary lines (one per metric) for stdout. *)
