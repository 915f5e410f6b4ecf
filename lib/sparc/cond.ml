type t =
  | A    (* always *)
  | N    (* never *)
  | E    (* equal: Z *)
  | Ne   (* not equal: !Z *)
  | G    (* signed greater: !(Z | (N ^ V)) *)
  | Ge   (* signed greater or equal: !(N ^ V) *)
  | L    (* signed less: N ^ V *)
  | Le   (* signed less or equal: Z | (N ^ V) *)
  | Gu   (* unsigned greater: !(C | Z) *)
  | Leu  (* unsigned less or equal: C | Z *)
  | Cc   (* carry clear (unsigned >=): !C *)
  | Cs   (* carry set (unsigned <): C *)
  | Pos  (* positive: !N *)
  | Neg  (* negative: N *)
  | Vc   (* overflow clear: !V *)
  | Vs   (* overflow set: V *)

(* Packed flags, used by the simulator's hot loop: updating the flags
   writes one immediate integer instead of allocating a record per
   cc-setting instruction.  Bit 3 = n, bit 2 = z, bit 1 = v, bit 0 = c. *)

let packed_zero = 0

let eval_packed t bits =
  match t with
  | A -> true
  | N -> false
  | E -> bits land 4 <> 0
  | Ne -> bits land 4 = 0
  | G -> not (bits land 4 <> 0 || (bits land 8 <> 0) <> (bits land 2 <> 0))
  | Ge -> (bits land 8 <> 0) = (bits land 2 <> 0)
  | L -> (bits land 8 <> 0) <> (bits land 2 <> 0)
  | Le -> bits land 4 <> 0 || (bits land 8 <> 0) <> (bits land 2 <> 0)
  | Gu -> bits land 5 = 0
  | Leu -> bits land 5 <> 0
  | Cc -> bits land 1 = 0
  | Cs -> bits land 1 <> 0
  | Pos -> bits land 8 = 0
  | Neg -> bits land 8 <> 0
  | Vc -> bits land 2 = 0
  | Vs -> bits land 2 <> 0

let negate = function
  | A -> N
  | N -> A
  | E -> Ne
  | Ne -> E
  | G -> Le
  | Le -> G
  | Ge -> L
  | L -> Ge
  | Gu -> Leu
  | Leu -> Gu
  | Cc -> Cs
  | Cs -> Cc
  | Pos -> Neg
  | Neg -> Pos
  | Vc -> Vs
  | Vs -> Vc

let to_string = function
  | A -> "a"
  | N -> "n"
  | E -> "e"
  | Ne -> "ne"
  | G -> "g"
  | Ge -> "ge"
  | L -> "l"
  | Le -> "le"
  | Gu -> "gu"
  | Leu -> "leu"
  | Cc -> "cc"
  | Cs -> "cs"
  | Pos -> "pos"
  | Neg -> "neg"
  | Vc -> "vc"
  | Vs -> "vs"

let of_string = function
  | "a" -> A
  | "n" -> N
  | "e" | "z" -> E
  | "ne" | "nz" -> Ne
  | "g" -> G
  | "ge" -> Ge
  | "l" -> L
  | "le" -> Le
  | "gu" -> Gu
  | "leu" -> Leu
  | "cc" | "geu" -> Cc
  | "cs" | "lu" -> Cs
  | "pos" -> Pos
  | "neg" -> Neg
  | "vc" -> Vc
  | "vs" -> Vs
  | s -> invalid_arg (Printf.sprintf "Cond.of_string: %S" s)

let equal (a : t) b = a = b
