(** Abstract syntax of mini-C, the workload source language.

    Mini-C is a small C subset rich enough to exhibit the write
    populations the paper measures: word-sized integers, pointers with
    C-style scaled arithmetic, fixed-size arrays, flat structs (int
    fields only), functions, and C89-style declarations at the top of
    each function body.  The [register] storage class is honoured by the
    naive compiler — such variables live in registers and never produce
    checked memory writes (cf. the paper's discussion of 001.gcc and
    008.espresso in §4.6.1). *)

type typ =
  | Tint
  | Tptr of typ
  | Tstruct of string
  | Tarray of typ * int  (** declaration-only; decays to pointer in expressions *)

type binop =
  | Add | Sub | Mul | Div | Mod
  | Band | Bor | Bxor | Shl | Shr
  | Eq | Ne | Lt | Le | Gt | Ge
  | Land | Lor  (** short-circuiting *)

type unop = Neg | Lnot | Bnot

type expr =
  | Int of int
  | Var of string
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Call of string * expr list
  | Index of expr * expr
  | Field of expr * string
  | Arrow of expr * string
  | Deref of expr
  | Addr of expr  (** operand must be an lvalue; checked by {!Typecheck} *)

type stmt =
  | Sexpr of expr
  | Sassign of expr * expr  (** lhs must be an lvalue *)
  | Sif of expr * stmt list * stmt list
  | Swhile of expr * stmt list
  | Sfor of stmt option * expr option * stmt option * stmt list
  | Sreturn of expr option
  | Sbreak
  | Scontinue
  | Sblock of stmt list
  | Sprint_str of string
      (** [print_str("...")] — compiled to a sequence of print-char traps *)

type vardecl = {
  vname : string;
  vtyp : typ;
  register : bool;
  init : int option;  (** globals only: initial word value *)
}

type func = {
  fname : string;
  params : (string * typ) list;
  locals : vardecl list;
  body : stmt list;
}

type struct_decl = { sname : string; sfields : (string * typ) list }
(** Every field is one word: [int] or a pointer type. *)

type program = {
  structs : struct_decl list;
  globals : vardecl list;
  funcs : func list;
}

val typ_to_string : typ -> string
