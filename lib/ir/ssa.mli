(** Static single assignment construction (Cytron et al., as cited by
    the paper §4.1): iterated-dominance-frontier phi placement and
    dominator-tree renaming.

    Every name has an implicit version-0 definition at function entry,
    so uninitialized paths are well-formed.  Calls define fresh versions
    of their clobbered registers and of any [extra_call_defs] pseudo
    names (matched globals that the callee might write). *)

type var = { name : Tac.name; version : int }

val var_equal : var -> var -> bool

type operand = Ovar of var | Oimm of int | Olab of string * int

type rhs =
  | Mov of operand
  | Bin of Sparc.Insn.alu * operand * operand
  | Load of { base : operand; off : operand; width : Sparc.Insn.width }
  | Callret

type phi = { dst : var; args : (int * var) list }
(** [args] pairs a predecessor block id with the version flowing in. *)

type instr =
  | Def of { dst : var; rhs : rhs; origin : int }
  | Store of {
      base : operand;
      off : operand;
      src : operand;
      width : Sparc.Insn.width;
      origin : int;
    }
  | Assert of { dst : var; src : var; rel : Tac.relop; bound : operand; origin : int }
  | Call of { target : string; defs : var list; origin : int }
  | Effect of { defs : var list; origin : int }
  | Control of { origin : int }

type block = { mutable phis : phi list; mutable body : instr list }

type def_site =
  | Dphi of int * phi
  | Dinstr of int * instr
  | Dentry

type index
(** The function's dense ids: its names, interned once per function,
    and its variables, numbered so that each name's versions are
    consecutive.  The def-site table and the dominator-tree numbering
    {!live_in_var} reads are arrays over them. *)

type t = { cfg : Cfg.t; dom : Dominance.t; blocks : block array; index : index }

val construct : ?extra_call_defs:Tac.name list -> Cfg.t -> Dominance.t -> t
(** Built once per function by the loop optimizer, and read by the
    bound propagation of each of its loops.  The plan verifier builds
    its own value with this same code, from the plan's retained inputs:
    a translation validator takes none of the optimizer's values on
    trust. *)

val block : t -> int -> block

val live_in_var : t -> int -> Tac.name -> var
(** The version of [name] reaching the start of a block (before its
    phis) — used to decide whether a bound expression is evaluable in a
    loop pre-header.  Answered on demand from the def sites: the
    highest version defined in a strict dominator of the block, or the
    entry version. *)

val def_site : t -> var -> def_site option
(** [Dphi] carries the phi as it stood when its block was renamed: the
    arguments of the predecessors renamed before it, not those of later
    ones such as a loop's latches. *)

(** {2 Dense variable ids} *)

val n_vars : t -> int
(** Ids run over [[0, n_vars)]: every name of the function's reachable
    code, each with its entry version 0 and every version renaming
    defined. *)

val var_id : t -> var -> int
(** The variable's id, or [-1] when the function has no such
    variable. *)

val var_of_id : t -> int -> var

val def_site_of_id : t -> int -> def_site

val instr_uses : instr -> var list
val instr_defs : instr -> var list

val iter_instrs : t -> (int -> [ `Phi of phi | `Instr of instr ] -> unit) -> unit

val var_to_string : var -> string
(** [name.version], e.g. [%o0.3] or [$main.i.2] — the one rendering of
    a variable. *)
