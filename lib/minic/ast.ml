type typ =
  | Tint
  | Tptr of typ
  | Tstruct of string
  | Tarray of typ * int

type binop =
  | Add | Sub | Mul | Div | Mod
  | Band | Bor | Bxor | Shl | Shr
  | Eq | Ne | Lt | Le | Gt | Ge
  | Land | Lor

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
  | Addr of expr

type stmt =
  | Sexpr of expr
  | Sassign of expr * expr
  | Sif of expr * stmt list * stmt list
  | Swhile of expr * stmt list
  | Sfor of stmt option * expr option * stmt option * stmt list
  | Sreturn of expr option
  | Sbreak
  | Scontinue
  | Sblock of stmt list
  | Sprint_str of string

type vardecl = {
  vname : string;
  vtyp : typ;
  register : bool;
  init : int option;
}

type func = {
  fname : string;
  params : (string * typ) list;
  locals : vardecl list;
  body : stmt list;
}

type struct_decl = { sname : string; sfields : (string * typ) list }

type program = {
  structs : struct_decl list;
  globals : vardecl list;
  funcs : func list;
}

let rec typ_to_string = function
  | Tint -> "int"
  | Tptr t -> typ_to_string t ^ "*"
  | Tstruct s -> "struct " ^ s
  | Tarray (t, n) -> Printf.sprintf "%s[%d]" (typ_to_string t) n
