(** Loop check-elimination planning (§4.3).

    Runs the IR pipeline (CFG + asserts, dominators, natural loops,
    SSA, Figure-4 bound propagation) on one function and turns each
    optimizable loop into a {!loop_plan}: which store sites lose their
    in-loop checks, and which invariant/range checks the pre-header
    must run instead.  Loops are processed innermost-first, and a loop
    qualifies only when every entry falls through into its header (so
    pre-header code inserted before the header label runs exactly on
    entry). *)

type check =
  | Inv of {
      expr : Ir.Bounds.bexpr;
      width : Sparc.Insn.width;
      origin : int;
      level : Ir.Bounds.level;
    }  (** a loop-invariant address: one standard check per entry *)
  | Rng of {
      lo : Ir.Bounds.bexpr;
      hi : Ir.Bounds.bexpr;
      width : Sparc.Insn.width;
      origin : int;
      lo_level : Ir.Bounds.level;
      hi_level : Ir.Bounds.level;
    }  (** a monotonic/bounded address: one range check per entry *)

val check_to_string : check -> string
(** Canonical debug rendering, e.g. [inv@12(&a+4@Lc)] or
    [rng@12(lo@Lm, hi@La)] (via {!Ir.Bounds.bexpr_to_string} /
    {!Ir.Bounds.level_name}), shared with the audit journal and the
    verifier's obligation details. *)

val pseudos_of_bexpr : Ir.Bounds.bexpr -> string list
(** The symbol-table pseudo homes a bound expression reads — the
    memory locations whose mutation could invalidate a pre-header
    check, i.e. the alias-pseudo obligations of §4.5. *)

type loop_plan = {
  loop_id : int;
  fname : string;
  header_item : int;
  checks : check list;
  eliminated : int list;
  alias_pseudos : string list;
      (** memory homes the bound expressions depend on; alias-checked
          runs create internal regions over them for the loop's
          duration (§4.5) *)
  exit_items : int list;
      (** item index of the first instruction each exit edge runs: the
          loop-exit trap goes just before it *)
  contains_ret : bool;
  lattice : (string * string) list;
      (** the Figure-4 fixpoint: rendered SSA variable → rendered
          bounds, as {!Ir.Bounds.env_bindings} lists it (each binding
          rendered once, sorted by variable name) — the provenance the
          audit journal records per loop *)
}

type stats = {
  loops_seen : int;
  loops_optimized : int;
  invariant_checks : int;
  range_checks : int;
}

type fn_input = {
  fname : string;
  tac : Ir.Tac.instr list;  (** after symbol-table rewriting *)
  items : (int * Sparc.Asm.item) list;
  extra_call_defs : Ir.Tac.name list;
}

val analyze :
  next_loop_id:(unit -> int) -> ?trace:Trace.t -> fn_input ->
  loop_plan list * stats
(** [trace] brackets the per-function pipeline stages in
    ["cfg-ssa"] / ["bounds"] spans. *)
