(** Three-address intermediate representation.

    SPARC instructions lift into this IR for analysis (§4.1 of the
    paper): ALU operations become [Def]s over machine-register names,
    loads/stores keep explicit base+offset address expressions, and
    condition-code/branch pairs carry their compare operands so that
    {!Cfg.insert_asserts} can materialize the paper's {i assert
    definitions}.  After symbol-table matching, memory homes of matched
    variables appear as [Pseudo] names. *)

type name =
  | Machine of Sparc.Reg.t
  | Pseudo of string
      (** a matched variable's memory home, e.g. ["main.i"] *)

type operand =
  | Name of name
  | Imm of int
  | Lab of string * int  (** address of a data/text label plus offset *)

type relop = Req | Rlt | Rle | Rgt | Rge

type rhs =
  | Mov of operand
  | Bin of Sparc.Insn.alu * operand * operand
  | Load of { base : operand; off : operand; width : Sparc.Insn.width }
  | Callret  (** the value a call leaves in [%o0] *)

type instr =
  | Label of string
  | Def of { dst : name; rhs : rhs; origin : int }
  | Store of {
      base : operand;
      off : operand;
      src : operand;
      width : Sparc.Insn.width;
      origin : int;
    }
  | Assert of { dst : name; src : name; rel : relop; bound : operand; origin : int }
      (** [dst := src], recording that [src rel bound] holds here. *)
  | Branch of {
      cond : Sparc.Cond.t;
      target : string;
      compare : (operand * operand) option;
      origin : int;
    }
  | Jump of { target : string; origin : int }
  | Call of { target : string; origin : int }
  | Ret of { origin : int }
  | Effect of { origin : int }

val name_equal : name -> name -> bool
val name_compare : name -> name -> int

val origin : instr -> int option
(** The item index an instruction was lifted from; [None] for a label. *)

val uses : instr -> name list

val defs : ?extra_call_defs:name list -> instr -> name list
(** [extra_call_defs] adds pseudo names a call may redefine (matched
    globals, address-taken locals). *)
