(** Hot-path execution profiler for the simulated machine.

    Discovers basic blocks from a machine-neutral description of the
    text segment (one [(kind, target)] pair per instruction), owns the
    direct-indexed per-instruction execution and branch-taken counter
    arrays that the interpreter bumps inline, and maintains a shadow
    call stack fed by the interpreter's call/return transfer events —
    from which it derives per-block and per-edge counts, per-function
    inclusive/exclusive instruction and cycle totals, a folded-stack
    profile (flamegraph.pl / speedscope loadable), a versioned
    [dbp-profile/1] JSON report (the superblock-candidate report of
    ROADMAP item 1), and sampled Perfetto counter tracks.

    This module is deliberately independent of the machine library
    (which depends on this one): the interpreter pays for profiling
    only through the two counter arrays and {!transfer}, and
    everything symbolic (function names, block structure) lives here.

    Cost contract: with the profiler detached the interpreter pays one
    boolean test per straight-line block it runs (and per single
    step).  Attached, it pays one array increment per executed
    instruction, made as each of a block's straight-line slots
    completes; only a block's last slot can be a branch, a call or a
    return, so only it pays one compare-and-increment (a branch) or one
    {!transfer} (a call or return).  Transfers are not
    rare: watched at symbol-table elimination, gcc1.35 makes one every
    8.5 instructions (410 226 in 3.50M) and li one every 10.4.  So
    {!transfer} resolves a call's callee once per call slot, keeps the
    call tree, which is also the shadow stack, as int ids in flat arrays
    (a call or a return writes no pointer), finds a call-tree child by a
    short scan that hashes nothing, counts per call-tree node only (the
    per-function table is derived by {!report}), and allocates nothing
    once the tree is warm. *)

(** {1 Instruction kinds}

    The per-instruction classification the interpreter derives from
    the decoded text.  [kind_branch] is any conditional or
    unconditional pc-relative branch (taken-ness observed by comparing
    the post-step pc against the fall-through); [kind_call] is a
    direct call or an indirect [jmpl] that links the return address;
    [kind_ret] is a non-linking [jmpl] (function return). *)

(** [kind_plain = 0] straight-line instruction. *)
val kind_plain : int

(** [kind_branch = 1] conditional/unconditional branch. *)
val kind_branch : int

(** [kind_call = 2] call (direct, or address-linking jmpl). *)
val kind_call : int

(** [kind_ret = 3] return (non-linking jmpl). *)
val kind_ret : int

type t

val create :
  ?clock:(unit -> float) ->
  text_base:int ->
  info:(int * int) array ->
  functions:(int * string) list ->
  entry:int ->
  unit ->
  t
(** [create ~text_base ~info ~functions ~entry ()] builds a profiler
    for a text segment of [Array.length info] instructions, where
    [info.(i)] is the [(kind, target index)] classification of the
    instruction at [text_base + 4i] ([-1] when there is no static
    target).  Block leaders are computed here: the entry point, every
    static branch/call target, every function entry, the instruction
    after a branch or return, and — because a call returns to
    [call address + 8] (the padding-word convention) — both words
    following a call.

    [functions] maps entry addresses to names; call targets outside it
    are registered lazily under their hex address, and so is [entry]
    when [functions] is empty.  Perfetto counter
    samples are taken at transfer events every 65536 instructions;
    [clock] (default: a constant) timestamps them. *)

val exec_array : t -> int array
(** The per-instruction execution counter array, owned by the
    interpreter once installed.  Slots are {e packed}: the interpreter
    seeds each slot's low two bits with the instruction's control
    classification ([kind_*]) and bumps the count stored above them
    (increment step 4), so its step path reads one word for both the
    count and the branch-vs-transfer decision.  Decode counts with
    {!exec_count}. *)

val exec_count : t -> int -> int
(** [exec_count t i] is the number of times instruction slot [i]
    executed (the packed [exec_array] slot shifted past the kind
    bits). *)

val profiled_instrs : t -> int
(** Sum of {!exec_count} over all slots — the total number of
    instructions the profiler observed (equals the machine's retired
    count unless profiling was paused, e.g. during replay queries). *)

val taken_array : t -> int array
(** The per-instruction branch-taken counter array (a branch that
    leaves pc at its fall-through is counted as not taken; a branch
    whose target {e is} its fall-through is indistinguishable and
    counts as not taken, which merges two identical edges). *)

val transfer :
  t -> slot:int -> kind:int -> pc:int -> instrs:int -> cycles:int -> unit
(** Control-transfer event from the interpreter, fired {e after} the
    call/return instruction at text slot [slot] executed: [pc] is the
    destination (callee entry for a call, return point for a return),
    [instrs]/[cycles] the machine totals.  A call's callee is resolved
    from [pc] the first time [slot] calls it and read back from the slot
    after that.  Maintains the shadow stack, attributes the
    instructions and cycles since the previous transfer to the call
    path that executed them, and takes counter samples.  A call to
    an entry seen before, from a call path seen before, allocates
    nothing. *)

val transfers : t -> int
(** Total transfer events processed (call + return). *)

(** {1 Reports} *)

type fn_report = {
  fr_name : string;
  fr_calls : int;  (** invocations (the entry function counts one) *)
  fr_excl_instrs : int;  (** instructions executed in the function itself *)
  fr_excl_cycles : int;
  fr_incl_instrs : int;  (** including callees; recursion counted once *)
  fr_incl_cycles : int;
}

type block = {
  bb_id : int;
  bb_lo : int;  (** address of the leader *)
  bb_hi : int;  (** address of the last instruction (inclusive) *)
  bb_fn : string;  (** enclosing function (greatest entry <= leader) *)
  bb_execs : int;  (** times the leader executed *)
  bb_instrs : int;  (** dynamic instructions executed inside the block *)
  bb_check_execs : int;
      (** MRS check-site executions attributed to this block (joined
          from the telemetry per-site exec arrays) *)
  bb_check_sites : int;  (** static check sites inside the block *)
}

type edge = {
  ed_from : int;  (** source block id *)
  ed_to : int;  (** destination block id *)
  ed_kind : string;  (** ["taken"], ["fall"] or ["call"] *)
  ed_count : int;
}

type backedge = {
  be_from_pc : int;  (** branch address *)
  be_to_pc : int;  (** target address (<= branch address) *)
  be_count : int;  (** times taken *)
  be_blocks : int list;  (** loop body: block ids in [target, branch] *)
  be_check_execs : int;  (** check executions inside the body *)
}

type report = {
  p_schema : string;
  p_total_instrs : int;
  p_total_cycles : int;
  p_functions : fn_report list;  (** hottest (exclusive instrs) first *)
  p_blocks : block list;  (** in address order, executed blocks only *)
  p_edges : edge list;  (** in (from, to, kind) order, non-zero only *)
  p_backedges : backedge list;  (** hottest first, top 10 *)
  p_folded : (string * int) list;
      (** folded call stacks: ["a;b;c", exclusive instrs], sorted by
          path — the flamegraph.pl / speedscope input *)
}

val report :
  t -> ?site_checks:(int * int) list -> instrs:int -> cycles:int -> unit ->
  report
(** Freeze a report at machine totals [instrs]/[cycles].
    [site_checks] joins MRS check density into the blocks: a list of
    [(site pc, dynamic check executions)].  Idempotent — the live
    shadow stack is read, not unwound. *)

val folded_to_string : report -> string
(** One ["path count\n"] line per folded stack with a non-zero
    exclusive count. *)

val merge_folded : (string * int) list list -> (string * int) list
(** Commutative multiset sum of folded profiles, sorted by path — the
    benchmark harness's cross-domain merge. *)

val to_json_string : ?indent:int -> report -> string

val chrome_counters : t -> (string * float * int) list
(** Sampled Perfetto counter tracks, in sample order:
    [("sim_instrs" | "sim_cycles" | "call_depth", clock seconds,
    value)] — feed to {!Trace.to_chrome_json}'s [?counters]. *)
