(** Bound propagation (§4.3.2, Figure 4).

    Every SSA variable is tagged with a lower and upper bound, each a
    symbolic expression over constants, label addresses and variables
    defined outside the current loop, classified on the paper's
    usefulness lattice [Lc > Lli > Lm > La > unbounded]:
    - [Lc] — derived from constants only;
    - [Lli] — from loop invariants and constants;
    - [Lm] — from a monotonic variable's loop-entry value;
    - [La] — from assert definitions (branch conditions).

    The fixpoint only ever {e raises} a bound to a more useful level
    (the [max] of Figure 4), so monotonic-group seeds persist.  After
    propagation, each store in the loop is classified: {!Invariant}
    (provably the same address every iteration — movable to the
    pre-header as one standard check), {!Range} (bounded — movable as a
    pre-header range check), or {!Keep}. *)

type level = La | Lm | Lli | Lc

type bexpr =
  | Bconst of int
  | Blab of string * int
  | Bvar of Ssa.var
  | Badd of bexpr * bexpr
  | Bsub of bexpr * bexpr
  | Bmul of bexpr * int
  | Bshl of bexpr * int

val normalize : bexpr -> bexpr
(** Canonical normal form.  Every constructor is linear, so a bound
    expression is a linear combination of atoms (SSA variables and
    label addresses) plus a constant, under wrapping 32-bit
    arithmetic; [normalize] folds constants, distributes [*c]/[<<c],
    and orders commutative sums deterministically.  Idempotent; two
    expressions denote the same Word-valued function of their atoms
    iff their normal forms are structurally equal. *)

val struct_equal : bexpr -> bexpr -> bool
(** Structural equality.  Because {!normalize} is idempotent, this is
    exact semantic equality on expressions already in normal form. *)

val bexpr_equal : bexpr -> bexpr -> bool
(** Structural fast path, falling back to comparing {!normalize}d
    forms — i.e. semantic equality of the linear combinations. *)

val bexpr_vars : bexpr -> Ssa.var list

type bound = Unbounded | Bound of { level : level; expr : bexpr }

type bounds = { lo : bound; hi : bound }

type env
(** One loop's fixpoint: bounds by dense variable id
    ({!Ssa.var_id}), for the variables the loop bound. *)

val env_of_list : (Ssa.var * bounds) list -> env
(** An environment binding exactly these variables (a repeated
    variable's last binding wins), outside any function. *)

type direction = Increasing | Decreasing

type group = { phi_var : Ssa.var; init : Ssa.var; direction : direction }

val monotonic_groups : Ssa.t -> Loops.loop -> group list
(** Header phis whose back-edge chains add a constant of uniform sign
    each iteration (following copies and asserts). *)

type fn
(** What bound propagation needs of a function independently of the
    loop, built once and read by each of its loops: the statements in
    worklist order, the use map and each variable's self-seed bound,
    all arrays over dense variable ids, and the variables' renderings,
    sorted on the first {!env_bindings}. *)

val prepare : Ssa.t -> fn

val propagate : fn -> Loops.loop -> env * group list
(** Seed invariants and monotonic groups, then run the Figure 4
    worklist to fixpoint.  Only the environment array and the in-loop
    block set are per loop.  The worklist is FIFO, starts from every
    statement of the function and re-queues a variable's readers once
    per read; it stops after 200 000 steps.  The order matters: the
    phi rule is not monotone (a phi is bounded only when all its
    arguments agree, under max-merge). *)

type disposition =
  | Keep
  | Invariant of { expr : bexpr; level : level }
      (** [level]: the usefulness level the invariant address bound was
          derived at (the min of its lo/hi levels) *)
  | Range of { lo : bexpr; hi : bexpr; lo_level : level; hi_level : level }

type store_decision = {
  origin : int;   (** assembly item index of the store *)
  block : int;
  width : Sparc.Insn.width;
  disposition : disposition;
}

val dispositions : Ssa.t -> Loops.loop -> env -> store_decision list
(** Classify every store inside the loop.  Expressions in non-[Keep]
    dispositions are evaluable in the loop pre-header: all their
    variables carry the version live at the header's entry.  A store
    whose [hi - lo] normalizes to a negative constant (bounds from
    contradictory asserts on a path the loop bound rules out) is
    [Keep], never an empty {!Range}. *)

val evaluable : Ssa.t -> Loops.loop -> bexpr -> bool

(** {2 Renderings}

    Canonical renderings shared by the loop optimizer's debug strings,
    the audit journal and [dbreak --explain].  Each type has one
    Buffer-based [*_to_string]; {!pp_bexpr} prints the same string. *)

val level_name : level -> string
(** ["La"] / ["Lm"] / ["Lli"] / ["Lc"]. *)

val bexpr_to_string : bexpr -> string
(** Fully parenthesized infix, e.g. [((%o0.1 * 4) + &a+8)]. *)

val pp_bexpr : Format.formatter -> bexpr -> unit

val bound_to_string : bound -> string
(** [expr@level], or [⊥] for [Unbounded]. *)

val bounds_to_string : bounds -> string
(** [[lo, hi]] via {!bound_to_string}. *)

val env_bindings : env -> (string * string) list
(** The fixpoint environment as rendered [(variable, bounds)] pairs
    ({!Ssa.var_to_string}, {!bounds_to_string}), sorted by rendered
    variable name, then version — independent of variable ids, for the
    audit journal's lattice section.  The names are rendered and
    sorted once per function, and each binding's bounds once. *)
