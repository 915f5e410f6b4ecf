open Sparc

type name =
  | Machine of Reg.t
  | Pseudo of string

type operand =
  | Name of name
  | Imm of int
  | Lab of string * int

type relop = Req | Rlt | Rle | Rgt | Rge

type rhs =
  | Mov of operand
  | Bin of Insn.alu * operand * operand
  | Load of { base : operand; off : operand; width : Insn.width }
  | Callret

type instr =
  | Label of string
  | Def of { dst : name; rhs : rhs; origin : int }
  | Store of {
      base : operand;
      off : operand;
      src : operand;
      width : Insn.width;
      origin : int;
    }
  | Assert of { dst : name; src : name; rel : relop; bound : operand; origin : int }
  | Branch of {
      cond : Cond.t;
      target : string;
      compare : (operand * operand) option;
      origin : int;
    }
  | Jump of { target : string; origin : int }
  | Call of { target : string; origin : int }
  | Ret of { origin : int }
  | Effect of { origin : int }  (* trap or other opaque instruction *)

let name_equal a b =
  match a, b with
  | Machine r1, Machine r2 -> Reg.equal r1 r2
  | Pseudo s1, Pseudo s2 -> String.equal s1 s2
  | (Machine _ | Pseudo _), _ -> false

let name_compare a b =
  match a, b with
  | Machine r1, Machine r2 -> Reg.compare r1 r2
  | Pseudo s1, Pseudo s2 -> String.compare s1 s2
  | Machine _, Pseudo _ -> -1
  | Pseudo _, Machine _ -> 1

let operand_names = function
  | Name n -> [ n ]
  | Imm _ | Lab _ -> []

(* Registers conservatively clobbered by a call: the out registers
   (shared with the callee's ins), the scratch globals, and %o7. *)
let call_clobbered_regs =
  List.map (fun i -> Machine (Reg.o i)) [ 0; 1; 2; 3; 4; 5; 7 ]
  @ [ Machine (Reg.g 1); Machine (Reg.g 2); Machine (Reg.g 3) ]

let origin = function
  | Label _ -> None
  | Def { origin; _ } | Store { origin; _ } | Assert { origin; _ }
  | Branch { origin; _ } | Jump { origin; _ } | Call { origin; _ }
  | Ret { origin } | Effect { origin } ->
    Some origin

let uses = function
  | Label _ -> []
  | Def { rhs; _ } -> (
    match rhs with
    | Mov op -> operand_names op
    | Bin (_, a, b) -> operand_names a @ operand_names b
    | Load { base; off; _ } -> operand_names base @ operand_names off
    | Callret -> [])
  | Store { base; off; src; _ } ->
    operand_names base @ operand_names off @ operand_names src
  | Assert { src; bound; _ } -> src :: operand_names bound
  | Branch { compare; _ } -> (
    match compare with
    | Some (a, b) -> operand_names a @ operand_names b
    | None -> [])
  | Jump _ -> []
  | Call _ ->
    (* Arguments are read by the callee. *)
    List.map (fun i -> Machine (Reg.o i)) [ 0; 1; 2; 3; 4; 5 ]
  | Ret _ -> [ Machine (Reg.i_ 0) ]
  | Effect _ -> [ Machine (Reg.o 0) ]

(* [extra_call_defs] lets the client extend call clobbers with pseudo
   names the callee might redefine (e.g. matched globals). *)
let defs ?(extra_call_defs = []) = function
  | Label _ -> []
  | Def { dst; _ } -> [ dst ]
  | Store _ -> []
  | Assert { dst; _ } -> [ dst ]
  | Branch _ | Jump _ | Ret _ -> []
  | Call _ -> call_clobbered_regs @ extra_call_defs
  | Effect _ -> [ Machine (Reg.o 0) ]
