(** Translation validation for check elimination (the static mirror of
    the audit journal's dynamic conservation law).

    The verifier is an independent checker: it consumes only the
    pipeline's *outputs* — the final {!Dbp.Instrument.t} plan, the
    retained per-function slices ([fn_inputs]), the compiler symbol
    table and the emitted program — and re-derives, without reusing the
    analyses' internal state, one proof obligation per eliminated
    check.  Every §4.2 symbol-table match is re-established against the
    symbol table and a fresh escape/address-taken walk; every §4.3
    pre-header check is re-proved from a fresh CFG/SSA build by a
    candidate-expression engine with its own interval argument; and a
    set of whole-plan obligations pin down pre-header placement,
    dominance, alias-pseudo resolvability, patch-stub fidelity, frame
    integrity, [%fp] discipline and indirect-jump restrictions.  When
    an audit journal is supplied, the plan is also cross-checked
    against the journal's recorded verdicts, expression by expression.

    A pristine pipeline must prove every obligation; any mutation of
    the plan (see {!Verify_mutate}) must leave at least one obligation
    [Refuted]. *)

type verdict =
  | Proved
  | Refuted of string  (** the plan is wrong: elimination is unsound *)
  | Unknown of string  (** the verifier could not decide; treated as a
                           failure by the [--verify] gate *)

type obligation = {
  o_id : int;          (** dense, stable within one report *)
  o_kind : string;
      (** ["sym"], ["inv"], ["rng"], ["preheader"], ["coverage"],
          ["dominance"], ["alias"], ["premonitor"], ["patch"],
          ["fpdef"], ["indirect"], ["frame"] or ["audit"] *)
  o_origin : int option;  (** item index of the store site, if any *)
  o_loop : int option;    (** owning loop id, if any *)
  o_pseudo : string option;  (** symbol-table pseudo, if any *)
  o_detail : string;
      (** human-readable statement of the obligation (for checks, the
          canonical {!Dbp.Loopopt.check_to_string} rendering) *)
  o_verdict : verdict;
}

type report = {
  v_schema : string;
  v_tags : (string * string) list;
  v_obligations : obligation list;
  v_proved : int;
  v_refuted : int;
  v_unknown : int;
}

val run :
  ?audit:Audit.report -> ?tags:(string * string) list ->
  Dbp.Instrument.t -> report
(** Discharge every obligation the plan owes.  [audit] additionally
    cross-checks the plan against the journal's recorded verdicts. *)

(** {2 Per-function tables}

    The §4.2 re-match looks each symbol-eliminated site up in tables
    built once per run ({!fn_by_origin}) and once per function
    ({!store_homes}), not by walking the function per site. *)

type home =
  | Hlocal of int  (** a frame slot: [%fp] plus this offset *)
  | Hglobal of string * int  (** a data label plus offset *)
  | Hnone  (** neither: the address is not a re-matchable home *)

val fn_by_origin :
  Dbp.Instrument.t -> (int, Dbp.Loopopt.fn_input) Hashtbl.t
(** Item index → the first retained function slice holding it. *)

val store_homes : Ir.Tac.instr list -> (int, home * Sparc.Insn.width) Hashtbl.t
(** One walk of a function's raw (pre-symopt) TAC, tracking which
    registers hold label addresses, classifying the address of every
    store by its origin; the first store at an origin wins. *)

val ok : report -> bool
(** No [Refuted] and no [Unknown] obligations. *)

val pp_obligation : Format.formatter -> obligation -> unit

val summary_line : report -> string
(** One line: [verify: obligations=N proved=N refuted=N unknown=N]. *)

val explain : report -> string -> string option
(** Obligations touching the given site: the target parses as an
    origin item index (decimal or [0x] hex) or names a pseudo.  [None]
    when nothing matches — callers join this into [--explain] output. *)

val to_json_string : ?indent:int -> report -> string
