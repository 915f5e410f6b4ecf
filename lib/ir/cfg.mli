(** Control-flow graphs over {!Tac} instruction streams, and the
    paper's assert-definition insertion (§4.3.1): each conditional edge
    whose branch carries compare operands gets a synthetic block of
    [Assert] re-definitions, so SSA renaming gives every refinement its
    own variable version. *)

exception Error of string

type block = {
  id : int;
  labels : string list;
  mutable body : Tac.instr list;  (** terminator last; never [Label] *)
  mutable succs : int list;
  mutable preds : int list;
}

type t = {
  blocks : block array;
  entry : int;
  by_label : (string, int) Hashtbl.t;
}

val build : Tac.instr list -> t
(** @raise Error on branches to labels outside the instruction list. *)

val insert_asserts : t -> t
(** Split conditional edges with assert blocks.  Existing block ids are
    preserved; assert blocks are appended at the end. *)

val block : t -> int -> block
val n_blocks : t -> int

val reverse_postorder : t -> int list
(** Reachable blocks only, entry first. *)

val reachable : t -> bool array
