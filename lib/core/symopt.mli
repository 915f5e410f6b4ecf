(** Symbol-table pattern matching (§4.2).

    Rewrites loads/stores whose address expressions match debugger
    symbol-table entries into moves of pseudo-operands.  Matched store
    checks are eliminated statically and re-inserted at runtime by
    [PreMonitor] when the variable becomes monitored; the rewrite also
    exposes memory-homed induction variables to the loop optimizer.

    Only unaliasable one-word homes are matched: locals whose address
    is never taken, and globals whose address never escapes. *)

module SS : Set.S with type elt = string

type store_site = { origin : int; pseudo : string }

type result = {
  tac : Ir.Tac.instr list;
  matched_stores : store_site list;
  matched_loads : int;
  global_pseudos : string list;
      (** pseudo names a call may redefine (matched globals) *)
  sites_by_pseudo : (string * int list) list;
      (** pseudo -> store origins: the PreMonitor patch list *)
}

val escaped_globals : Ir.Tac.instr list list -> SS.t
(** Whole-program escape analysis over all functions' TAC. *)

val rewrite :
  ?audit:Audit.t ->
  Sparc.Symtab.t -> fname:string -> escaped:SS.t -> Ir.Tac.instr list -> result
(** With [audit], every matched store emits a [Sym_matched] provenance
    decision (origin, pseudo, rendered symbol-table entry) into the
    journal. *)
