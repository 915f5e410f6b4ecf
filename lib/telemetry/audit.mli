(** Analysis-provenance journal for the check-elimination pipeline.

    PR 2's {!Telemetry} registry made the MRS {e runtime} observable;
    this module records {e why} the static pipeline decided what it
    decided.  Every write site in an instrumentation plan gets one
    provenance {!verdict} — the symbolic argument (Wahbe, Lucco &
    Graham §4.2/§4.3) that justified keeping or eliminating its check —
    and the runtime appends Kessler patch-lifecycle and alias-region
    events so a missed watchpoint can be audited after the fact.

    The journal is append-only during analysis and execution, snapshot
    into an immutable {!report} afterwards, and rendered as versioned
    ["dbp-audit/2"] JSON ({!to_json_string}); the journal is write-only.
    All analysis payloads (bound expressions, lattice values, symbol
    table entries) are carried as pre-rendered strings so this library
    stays dependency-free.

    Emission is gated exactly like telemetry: {!create} takes an
    [enabled] thunk (the session passes [Telemetry.enabled registry]),
    and every record is a no-op when it returns [false]. *)

(** {1 Verdicts}

    One per write site.  [Kept] means no analysis could discharge the
    check; the rest name the §4.2/§4.3 argument that eliminated it. *)
type verdict =
  | Kept
      (** no elimination argument applied; check emitted inline *)
  | Sym_matched of { pseudo : string; symtab_entry : string }
      (** §4.2: the store's address expression matched symbol-table
          entry [symtab_entry]; the check moved behind pseudo register
          [pseudo] and is re-inserted on demand by PreMonitor *)
  | Loop_invariant of { loop_id : int; bexpr : string; level : string }
      (** §4.3: the store address is loop-invariant at [level]; one
          pre-header check of [bexpr] covers every iteration *)
  | Loop_range of {
      loop_id : int;
      lo : string;
      hi : string;
      levels : string;
    }
      (** §4.3 Figure 4: the address sweeps [[lo, hi]]; a pre-header
          range check covers the whole sweep ([levels] names the
          lattice levels of the two bounds) *)

val verdict_name : verdict -> string
(** ["kept"] / ["sym_matched"] / ["loop_invariant"] / ["loop_range"]. *)

(** {1 Journal entries} *)

type site = {
  a_slot : int;  (** telemetry site slot (index into the site arrays) *)
  a_origin : int;  (** address of the original store instruction *)
  a_fn : string;  (** enclosing function *)
  a_write_type : string;  (** BSS / STACK / HEAP / BSS-VAR *)
  a_verdict : verdict;
}

type patch_kind = Patch_inserted | Patch_removed

type patch_event = {
  p_kind : patch_kind;
  p_pseudo : string;  (** pseudo register whose monitoring changed *)
  p_origin : int;  (** patched site address *)
  p_insn : int;  (** machine instruction count at the event *)
}

type region_kind =
  | Region_created
  | Region_deleted
  | Region_refused
      (** a loop pre-header's alias region overlapped one already in
          the table, so none was created *)

type region_event = {
  rg_kind : region_kind;
  rg_lo : int;
  rg_hi : int;  (** exclusive *)
  rg_why : string;  (** e.g. ["loop-preheader"] *)
  rg_insn : int;
}

type lattice_binding = {
  lb_fn : string;
  lb_loop : int;
  lb_var : string;  (** SSA variable, pre-rendered *)
  lb_bounds : string;  (** fixpoint lattice value, pre-rendered *)
}

(** Checkpoint/replay lifecycle (v2): one event per journal mutation
    and per time-travel, so a surprising query answer can be traced to
    the checkpoints and re-executions that produced it. *)
type replay_kind =
  | Checkpoint_taken
  | Checkpoint_evicted  (** thinned out of the journal under budget *)
  | State_restored  (** rollback to a checkpoint *)
  | Replay_finished  (** a travel/query re-execution reached its target *)

type replay_event = {
  rp_kind : replay_kind;
  rp_insn : int;  (** instruction count the event refers to *)
  rp_detail : string;  (** pre-rendered payload, e.g. ["pages=12 bytes=49320"] *)
}

(** {1 Journals} *)

type t

val create : ?enabled:(unit -> bool) -> unit -> t
(** A fresh journal.  [enabled] (default: always on) is consulted on
    every emission; pass the telemetry registry's flag to keep audit
    and metrics gated together. *)

val enabled : t -> bool

val set_tag : t -> string -> string -> unit
(** Report metadata (workload, strategy, …), merged like telemetry
    tags. *)

(** {2 Analysis-time emission}

    The optimizers record decisions keyed by the store's {e origin}
    label; {!record_site} later joins slot numbers against them when
    the plan is laid out. *)

val sym_matched : t -> origin:int -> pseudo:string -> symtab_entry:string -> unit

val loop_invariant :
  t -> origin:int -> loop_id:int -> bexpr:string -> level:string -> unit

val loop_range :
  t -> origin:int -> loop_id:int -> lo:string -> hi:string -> levels:string ->
  unit

val lattice : t -> fn:string -> loop_id:int -> var:string -> bounds:string -> unit
(** One SSA variable's bound-lattice value at the §4.3 fixpoint. *)

val record_site :
  t -> slot:int -> origin:int -> fn:string -> write_type:string -> unit
(** Finalize one write site: looks up the decision previously recorded
    for [origin] (default {!Kept}) and appends the {!site} entry. *)

(** {2 Run-time emission} *)

val patch : t -> kind:patch_kind -> pseudo:string -> origin:int -> insn:int -> unit

val region :
  t -> kind:region_kind -> lo:int -> hi:int -> why:string -> insn:int -> unit

val replay : t -> kind:replay_kind -> insn:int -> detail:string -> unit

(** {1 Reports} *)

val schema_version : string
(** ["dbp-audit/2"] — v2 added the [replay] lifecycle events. *)

type report = {
  a_schema : string;
  a_tags : (string * string) list;  (** sorted by key *)
  a_sites : site list;  (** in slot order *)
  a_patches : patch_event list;
  a_regions : region_event list;
  a_lattice : lattice_binding list;
  a_replay : replay_event list;
  a_summary : (string * int) list;
      (** verdict-name [->] site count, canonical order, all four
          present *)
}

val report : t -> report

val summary : t -> (string * int) list
(** Just the verdict counts (cheap; used by the bench harness). *)

val merge_summaries : (string * int) list list -> (string * int) list
(** Pointwise sum in canonical order — commutative, so per-domain
    bench summaries merge deterministically. *)

val explain : report -> string -> string option
(** Human-readable provenance for the sites a target names — an
    origin address ([0x]-hex or decimal) or a pseudo register name
    from a {!Sym_matched} verdict: the verdict, its bound expressions,
    the loop's lattice derivation and any patch events touching the
    site.  [None] when nothing matches. *)

(** {2 JSON} *)

val to_json_string : ?indent:int -> report -> string
