type t =
  | G of int  (* %g0..%g7, %g0 hardwired to zero *)
  | O of int  (* %o0..%o7, %o6 = %sp, %o7 = call return address *)
  | L of int  (* %l0..%l7 *)
  | I of int  (* %i0..%i7, %i6 = %fp, %i7 = callee return address *)

let in_range i = i >= 0 && i < 8

let g i = if in_range i then G i else invalid_arg "Reg.g"
let o i = if in_range i then O i else invalid_arg "Reg.o"
let l i = if in_range i then L i else invalid_arg "Reg.l"
let i_ i = if in_range i then I i else invalid_arg "Reg.i_"

let g0 = G 0
let sp = O 6
let fp = I 6
let o7 = O 7
let i7 = I 7

let equal a b =
  match a, b with
  | G x, G y | O x, O y | L x, L y | I x, I y -> x = y
  | (G _ | O _ | L _ | I _), _ -> false

let index = function
  | G i -> i
  | O i -> 8 + i
  | L i -> 16 + i
  | I i -> 24 + i

let of_index n =
  if n < 0 || n > 31 then invalid_arg "Reg.of_index"
  else if n < 8 then G n
  else if n < 16 then O (n - 8)
  else if n < 24 then L (n - 16)
  else I (n - 24)

let compare a b = compare (index a) (index b)

let render = function
  | O 6 -> "%sp"
  | I 6 -> "%fp"
  | G i -> Printf.sprintf "%%g%d" i
  | O i -> Printf.sprintf "%%o%d" i
  | L i -> Printf.sprintf "%%l%d" i
  | I i -> Printf.sprintf "%%i%d" i

(* Rendered once: SSA names and the printer render registers often. *)
let names = Array.init 32 (fun n -> render (of_index n))

let to_string r = names.(index r)

let of_string s =
  let fail () = invalid_arg (Printf.sprintf "Reg.of_string: %S" s) in
  match s with
  | "%sp" -> sp
  | "%fp" -> fp
  | _ ->
    if String.length s <> 3 || s.[0] <> '%' then fail ()
    else begin
      let i = Char.code s.[2] - Char.code '0' in
      if not (in_range i) then fail ()
      else
        match s.[1] with
        | 'g' -> G i
        | 'o' -> O i
        | 'l' -> L i
        | 'i' -> I i
        | _ -> fail ()
    end
