open Sparc

(* The paper's bound lattice (§4.3.2), ordered by usefulness:
   constants > loop invariants > monotonic > assert-derived > unknown. *)
type level = La | Lm | Lli | Lc

let level_rank = function La -> 1 | Lm -> 2 | Lli -> 3 | Lc -> 4

let min_level a b = if level_rank a <= level_rank b then a else b

type bexpr =
  | Bconst of int
  | Blab of string * int
  | Bvar of Ssa.var
  | Badd of bexpr * bexpr
  | Bsub of bexpr * bexpr
  | Bmul of bexpr * int
  | Bshl of bexpr * int

let rec bexpr_depth = function
  | Bconst _ | Blab _ | Bvar _ -> 1
  | Badd (a, b) | Bsub (a, b) -> 1 + max (bexpr_depth a) (bexpr_depth b)
  | Bmul (a, _) | Bshl (a, _) -> 1 + bexpr_depth a

let max_bexpr_depth = 16

let rec struct_equal a b =
  match a, b with
  | Bconst x, Bconst y -> x = y
  | Blab (l1, o1), Blab (l2, o2) -> String.equal l1 l2 && o1 = o2
  | Bvar v1, Bvar v2 -> Ssa.var_equal v1 v2
  | Badd (x1, y1), Badd (x2, y2) | Bsub (x1, y1), Bsub (x2, y2) ->
    struct_equal x1 x2 && struct_equal y1 y2
  | Bmul (x1, c1), Bmul (x2, c2) | Bshl (x1, c1), Bshl (x2, c2) ->
    struct_equal x1 x2 && c1 = c2
  | (Bconst _ | Blab _ | Bvar _ | Badd _ | Bsub _ | Bmul _ | Bshl _), _ -> false

(* --- canonical normal form ---------------------------------------------------

   Every [bexpr] constructor is linear in its sub-expression, so any
   bound expression is a linear combination  Σ cᵢ·atomᵢ + k  of atoms
   (SSA variables and label addresses) under the machine's wrapping
   32-bit arithmetic.  [normalize] computes that combination exactly —
   constant folding, commutativity/associativity of [+], distribution
   of [*c] and [<<c] — and re-renders it in a fixed shape, so two
   expressions are semantically equal (as Word-valued functions of
   their atoms) iff their normal forms are structurally equal. *)

type atom = Alab of string | Avar of Ssa.var

let atom_compare a b =
  match a, b with
  | Alab l1, Alab l2 -> String.compare l1 l2
  | Alab _, Avar _ -> -1
  | Avar _, Alab _ -> 1
  | Avar v1, Avar v2 -> (
    let tie () = compare v1.Ssa.version v2.Ssa.version in
    match v1.Ssa.name, v2.Ssa.name with
    | Tac.Machine r1, Tac.Machine r2 -> (
      match compare (Reg.index r1) (Reg.index r2) with 0 -> tie () | c -> c)
    | Tac.Machine _, Tac.Pseudo _ -> -1
    | Tac.Pseudo _, Tac.Machine _ -> 1
    | Tac.Pseudo s1, Tac.Pseudo s2 -> (
      match String.compare s1 s2 with 0 -> tie () | c -> c))

(* Accumulate [coeff * e] into (terms, const).  A label's offset is a
   constant; [x << c] is [x * 2^c] under wrapping arithmetic. *)
let rec linearize coeff e (terms, const) =
  match e with
  | Bconst c -> (terms, Word.add const (Word.mul coeff c))
  | Blab (l, o) -> ((Alab l, coeff) :: terms, Word.add const (Word.mul coeff o))
  | Bvar v -> ((Avar v, coeff) :: terms, const)
  | Badd (a, b) -> linearize coeff b (linearize coeff a (terms, const))
  | Bsub (a, b) -> linearize (Word.sub 0 coeff) b (linearize coeff a (terms, const))
  | Bmul (a, c) -> linearize (Word.mul coeff c) a (terms, const)
  | Bshl (a, c) -> linearize (Word.mul coeff (Word.sll 1 c)) a (terms, const)

let normalize e =
  let terms, const = linearize 1 e ([], 0) in
  let merged =
    List.sort (fun (a, _) (b, _) -> atom_compare a b) terms
    |> List.fold_left
         (fun acc (a, c) ->
           match acc with
           | (a', c') :: rest when atom_compare a a' = 0 -> (a', Word.add c' c) :: rest
           | _ -> (a, c) :: acc)
         []
    |> List.rev
    |> List.filter (fun (_, c) -> c <> 0)
  in
  let atom_expr = function Alab l -> Blab (l, 0) | Avar v -> Bvar v in
  let term (a, c) = if c = 1 then atom_expr a else Bmul (atom_expr a, c) in
  match merged with
  | [] -> Bconst const
  | t0 :: rest ->
    let sum = List.fold_left (fun acc t -> Badd (acc, term t)) (term t0) rest in
    if const = 0 then sum else Badd (sum, Bconst const)

let bexpr_equal a b =
  struct_equal a b || struct_equal (normalize a) (normalize b)

let rec bexpr_vars = function
  | Bconst _ | Blab _ -> []
  | Bvar v -> [ v ]
  | Badd (a, b) | Bsub (a, b) -> bexpr_vars a @ bexpr_vars b
  | Bmul (a, _) | Bshl (a, _) -> bexpr_vars a

(* Smart constructors with constant folding. *)
let badd a b =
  match a, b with
  | Bconst x, Bconst y -> Bconst (Word.add x y)
  | Blab (l, o), Bconst c | Bconst c, Blab (l, o) -> Blab (l, o + c)
  | a, Bconst 0 | Bconst 0, a -> a
  | a, b -> Badd (a, b)

let bsub a b =
  match a, b with
  | Bconst x, Bconst y -> Bconst (Word.sub x y)
  | Blab (l, o), Bconst c -> Blab (l, o - c)
  | a, Bconst 0 -> a
  | a, b -> Bsub (a, b)

let bmul a c =
  match a with
  | Bconst x -> Bconst (Word.mul x c)
  | a -> if c = 1 then a else Bmul (a, c)

let bshl a c =
  match a with
  | Bconst x -> Bconst (Word.sll x c)
  | a -> if c = 0 then a else Bshl (a, c)

type bound = Unbounded | Bound of { level : level; expr : bexpr }

type bounds = { lo : bound; hi : bound }

let bot = { lo = Unbounded; hi = Unbounded }

let bound_equal a b =
  match a, b with
  | Unbounded, Unbounded -> true
  | Bound x, Bound y -> x.level = y.level && bexpr_equal x.expr y.expr
  | (Unbounded | Bound _), _ -> false

let bounds_equal a b = bound_equal a.lo b.lo && bound_equal a.hi b.hi

(* "More useful" comparison: keep the existing bound unless the new one
   has a strictly higher level (Figure 4's max operator). *)
let max_bound current candidate =
  match current, candidate with
  | Unbounded, c -> c
  | c, Unbounded -> c
  | Bound a, Bound b -> if level_rank b.level > level_rank a.level then candidate else current

let cap_level cap = function
  | Unbounded -> Unbounded
  | Bound b -> Bound { b with level = min_level cap b.level }

let guard_depth = function
  | Unbounded -> Unbounded
  | Bound b -> if bexpr_depth b.expr > max_bexpr_depth then Unbounded else Bound b

(* Arithmetic on bounds: level = min of operand levels. *)
let bin_bound f a b =
  match a, b with
  | Bound x, Bound y ->
    guard_depth (Bound { level = min_level x.level y.level; expr = f x.expr y.expr })
  | (Unbounded | Bound _), _ -> Unbounded

let scale_bound c = function
  | Unbounded -> Unbounded
  | Bound x -> guard_depth (Bound { x with expr = bmul x.expr c })

let shift_bound c = function
  | Unbounded -> Unbounded
  | Bound x -> guard_depth (Bound { x with expr = bshl x.expr c })

let const_bound v = Bound { level = Lc; expr = Bconst v }

(* --- variable bound store -------------------------------------------------- *)

module VarTbl = Hashtbl.Make (struct
  type t = Ssa.var

  let equal = Ssa.var_equal

  let hash (v : Ssa.var) =
    Hashtbl.hash
      (match v.name with
      | Tac.Machine r -> (0, Sparc.Reg.index r, v.version)
      | Tac.Pseudo s -> (1, Hashtbl.hash s, v.version))
end)

type env = bounds VarTbl.t

let lookup (env : env) v = Option.value ~default:bot (VarTbl.find_opt env v)

let operand_bounds env = function
  | Ssa.Oimm i -> { lo = const_bound i; hi = const_bound i }
  | Ssa.Olab (l, o) ->
    let b = Bound { level = Lc; expr = Blab (l, o) } in
    { lo = b; hi = b }
  | Ssa.Ovar v -> lookup env v

(* Bounds of a binary operation (the paper's ComputeLower/UpperBound). *)
let bin_bounds alu a b =
  let const_of bounds =
    match bounds.lo, bounds.hi with
    | Bound { expr = Bconst x; _ }, Bound { expr = Bconst y; _ } when x = y -> Some x
    | _, _ -> None
  in
  match alu with
  | Insn.Add ->
    { lo = bin_bound badd a.lo b.lo; hi = bin_bound badd a.hi b.hi }
  | Insn.Sub ->
    { lo = bin_bound bsub a.lo b.hi; hi = bin_bound bsub a.hi b.lo }
  | Insn.Smul | Insn.Umul -> (
    match const_of a, const_of b with
    | Some x, Some y -> let v = Word.mul x y in { lo = const_bound v; hi = const_bound v }
    | Some c, None when c >= 0 -> { lo = scale_bound c b.lo; hi = scale_bound c b.hi }
    | Some c, None -> { lo = scale_bound c b.hi; hi = scale_bound c b.lo }
    | None, Some c when c >= 0 -> { lo = scale_bound c a.lo; hi = scale_bound c a.hi }
    | None, Some c -> { lo = scale_bound c a.hi; hi = scale_bound c a.lo }
    | None, None -> bot)
  | Insn.Sll -> (
    match const_of b with
    | Some c when c >= 0 && c < 31 ->
      { lo = shift_bound c a.lo; hi = shift_bound c a.hi }
    | Some _ | None -> bot)
  | Insn.And -> (
    (* x & c with c >= 0 lies in [0, c]. *)
    match const_of a, const_of b with
    | Some x, Some y -> let v = Word.logand x y in { lo = const_bound v; hi = const_bound v }
    | _, Some c when c >= 0 -> { lo = const_bound 0; hi = const_bound c }
    | Some c, _ when c >= 0 -> { lo = const_bound 0; hi = const_bound c }
    | _, _ -> bot)
  | Insn.Or | Insn.Xor | Insn.Andn | Insn.Orn | Insn.Xnor | Insn.Srl
  | Insn.Sra | Insn.Sdiv | Insn.Udiv -> (
    match const_of a, const_of b with
    | Some x, Some y -> (
      let f =
        match alu with
        | Insn.Or -> Some Word.logor
        | Insn.Xor -> Some Word.logxor
        | Insn.Srl -> Some Word.srl
        | Insn.Sra -> Some Word.sra
        | Insn.Sdiv -> if y = 0 then None else Some Word.sdiv
        | Insn.Udiv -> if y = 0 then None else Some Word.udiv
        | _ -> None
      in
      match f with
      | Some f -> let v = f x y in { lo = const_bound v; hi = const_bound v }
      | None -> bot)
    | _, _ -> bot)

let refine_assert env src_bounds rel bound_op =
  let b = operand_bounds env bound_op in
  let minus_one = function
    | Unbounded -> Unbounded
    | Bound x -> guard_depth (Bound { x with expr = badd x.expr (Bconst (-1)) })
  in
  let plus_one = function
    | Unbounded -> Unbounded
    | Bound x -> guard_depth (Bound { x with expr = badd x.expr (Bconst 1) })
  in
  let cap = cap_level La in
  let lo_cand, hi_cand =
    match (rel : Tac.relop) with
    | Tac.Rle -> (Unbounded, cap b.hi)
    | Tac.Rlt -> (Unbounded, cap (minus_one b.hi))
    | Tac.Rge -> (cap b.lo, Unbounded)
    | Tac.Rgt -> (cap (plus_one b.lo), Unbounded)
    | Tac.Req -> (cap b.lo, cap b.hi)
  in
  {
    lo = max_bound src_bounds.lo lo_cand;
    hi = max_bound src_bounds.hi hi_cand;
  }

(* --- monotonic groups (§4.3) ----------------------------------------------- *)

type direction = Increasing | Decreasing

type group = { phi_var : Ssa.var; init : Ssa.var; direction : direction }

(* Constant value of a variable, following copies — naive codegen
   materializes literals in registers, so increments read "add r, rc"
   with rc := mov #c. *)
let rec const_of_var ssa depth v =
  if depth > 8 then None
  else
    match Ssa.def_site ssa v with
    | Some (Ssa.Dinstr (_, Ssa.Def { rhs = Ssa.Mov (Ssa.Oimm c); _ })) -> Some c
    | Some (Ssa.Dinstr (_, Ssa.Def { rhs = Ssa.Mov (Ssa.Ovar w); _ })) ->
      const_of_var ssa (depth + 1) w
    | Some (Ssa.Dinstr (_, Ssa.Assert { src; _ })) -> const_of_var ssa (depth + 1) src
    | Some (Ssa.Dphi _) | Some (Ssa.Dinstr _) | Some Ssa.Dentry | None -> None

let const_of_operand ssa = function
  | Ssa.Oimm c -> Some c
  | Ssa.Ovar v -> const_of_var ssa 0 v
  | Ssa.Olab _ -> None

(* Follow copies/asserts/adds from [v] back to [target]; returns the
   accumulated constant delta if the chain closes. *)
let rec chase ssa ~target ~depth v acc =
  if depth > 32 then None
  else if Ssa.var_equal v target then Some acc
  else
    match Ssa.def_site ssa v with
    | Some (Ssa.Dinstr (_, Ssa.Def { rhs = Ssa.Mov (Ssa.Ovar w); _ })) ->
      chase ssa ~target ~depth:(depth + 1) w acc
    | Some (Ssa.Dinstr (_, Ssa.Assert { src; _ })) ->
      chase ssa ~target ~depth:(depth + 1) src acc
    | Some (Ssa.Dinstr (_, Ssa.Def { rhs = Ssa.Bin (Insn.Add, a, b); _ })) -> (
      match a, const_of_operand ssa b with
      | Ssa.Ovar w, Some c -> chase ssa ~target ~depth:(depth + 1) w (acc + c)
      | _, _ -> (
        match const_of_operand ssa a, b with
        | Some c, Ssa.Ovar w -> chase ssa ~target ~depth:(depth + 1) w (acc + c)
        | _, _ -> None))
    | Some (Ssa.Dinstr (_, Ssa.Def { rhs = Ssa.Bin (Insn.Sub, a, b); _ })) -> (
      match a, const_of_operand ssa b with
      | Ssa.Ovar w, Some c -> chase ssa ~target ~depth:(depth + 1) w (acc - c)
      | _, _ -> None)
    | Some (Ssa.Dphi _) | Some (Ssa.Dinstr _) | Some Ssa.Dentry | None -> None

let monotonic_groups (ssa : Ssa.t) (loop : Loops.loop) : group list =
  let header_block = Ssa.block ssa loop.header in
  List.filter_map
    (fun (p : Ssa.phi) ->
      let outside, inside =
        List.partition (fun (pred, _) -> not (Loops.in_loop loop pred)) p.args
      in
      match outside, inside with
      | (_, init) :: more_outside, _ :: _
        when List.for_all (fun (_, v) -> Ssa.var_equal v init) more_outside ->
        let deltas =
          List.map (fun (_, v) -> chase ssa ~target:p.dst ~depth:0 v 0) inside
        in
        if List.for_all (fun d -> match d with Some d -> d > 0 | None -> false) deltas
        then Some { phi_var = p.dst; init; direction = Increasing }
        else if
          List.for_all (fun d -> match d with Some d -> d < 0 | None -> false) deltas
        then Some { phi_var = p.dst; init; direction = Decreasing }
        else None
      | _, _ -> None)
    header_block.phis

(* --- the Figure 4 fixpoint -------------------------------------------------- *)

type stmt =
  | Sphi of int * Ssa.phi
  | Sinstr of int * Ssa.instr

let stmt_defs = function
  | Sphi (_, p) -> [ p.dst ]
  | Sinstr (_, i) -> Ssa.instr_defs i

let stmt_uses = function
  | Sphi (_, p) -> List.map snd p.args
  | Sinstr (_, i) -> Ssa.instr_uses i

let compute_stmt env = function
  | Sphi (_, p) -> (
    (* A phi is bounded only when all arguments agree (monotonic phis
       are seeded separately and protected by the max update). *)
    match List.map (fun (_, v) -> lookup env v) p.args with
    | [] -> bot
    | first :: rest ->
      if List.for_all (bounds_equal first) rest then first else bot)
  | Sinstr (_, i) -> (
    match i with
    | Ssa.Def { rhs; _ } -> (
      match rhs with
      | Ssa.Mov op -> operand_bounds env op
      | Ssa.Bin (alu, a, b) ->
        bin_bounds alu (operand_bounds env a) (operand_bounds env b)
      | Ssa.Load _ | Ssa.Callret -> bot)
    | Ssa.Assert { src; rel; bound; _ } ->
      refine_assert env (lookup env src) rel bound
    | Ssa.Call _ | Ssa.Effect _ | Ssa.Store _ | Ssa.Control _ -> bot)

(* Run bound propagation for one loop.  Returns the variable-bounds
   environment; store dispositions are derived by {!dispositions}. *)
let propagate (ssa : Ssa.t) (loop : Loops.loop) : env * group list =
  let env : env = VarTbl.create 256 in
  let in_loop = Loops.in_loop loop in
  (* Seed loop-invariant variables: anything defined outside the loop
     bounds itself. *)
  Hashtbl.iter
    (fun (v : Ssa.var) site ->
      let outside =
        match site with
        | Ssa.Dentry -> true
        | Ssa.Dphi (b, _) | Ssa.Dinstr (b, _) -> not (in_loop b)
      in
      if outside then
        let b = Bound { level = Lli; expr = Bvar v } in
        VarTbl.replace env v { lo = b; hi = b })
    ssa.defs;
  (* Seed monotonic groups. *)
  let groups = monotonic_groups ssa loop in
  List.iter
    (fun g ->
      let init_bound = Bound { level = Lm; expr = Bvar g.init } in
      let b =
        match g.direction with
        | Increasing -> { lo = init_bound; hi = Unbounded }
        | Decreasing -> { lo = Unbounded; hi = init_bound }
      in
      VarTbl.replace env g.phi_var b)
    groups;
  (* Collect statements and the use map. *)
  let stmts = ref [] in
  Ssa.iter_instrs ssa (fun blk item ->
      match item with
      | `Phi p -> stmts := Sphi (blk, p) :: !stmts
      | `Instr i -> stmts := Sinstr (blk, i) :: !stmts);
  let stmts = !stmts in
  let users : (Ssa.var, stmt list) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun s ->
      List.iter
        (fun u ->
          Hashtbl.replace users u (s :: Option.value ~default:[] (Hashtbl.find_opt users u)))
        (stmt_uses s))
    stmts;
  let work = Queue.create () in
  List.iter (fun s -> Queue.add s work) stmts;
  let steps = ref 0 in
  while not (Queue.is_empty work) && !steps < 200_000 do
    incr steps;
    let s = Queue.pop work in
    match stmt_defs s with
    | [ dst ] ->
      let computed = compute_stmt env s in
      let current = lookup env dst in
      let merged =
        { lo = max_bound current.lo computed.lo; hi = max_bound current.hi computed.hi }
      in
      (* [max_bound] returns its current argument unless the candidate
         is strictly more useful, so physical inequality is exactly
         "the bound changed" — no normalization needed. *)
      if not (merged.lo == current.lo && merged.hi == current.hi) then begin
        VarTbl.replace env dst merged;
        List.iter
          (fun u -> Queue.add u work)
          (Option.value ~default:[] (Hashtbl.find_opt users dst))
      end
    | _ -> ()
  done;
  (env, groups)

(* --- store dispositions ------------------------------------------------------ *)

type disposition =
  | Keep
  | Invariant of { expr : bexpr; level : level }
  | Range of { lo : bexpr; hi : bexpr; lo_level : level; hi_level : level }

type store_decision = {
  origin : int;
  block : int;
  width : Insn.width;
  disposition : disposition;
}

(* A bound expression is evaluable in the loop pre-header when every
   variable it mentions carries the version live at the header's entry
   (i.e. defined outside the loop and still current). *)
let evaluable (ssa : Ssa.t) (loop : Loops.loop) expr =
  List.for_all
    (fun (v : Ssa.var) ->
      Ssa.var_equal v (Ssa.live_in_var ssa loop.header v.name))
    (bexpr_vars expr)

let dispositions (ssa : Ssa.t) (loop : Loops.loop) (env : env) : store_decision list
    =
  let in_loop = Loops.in_loop loop in
  let out = ref [] in
  Array.iteri
    (fun blk (b : Ssa.block) ->
      if in_loop blk then
        List.iter
          (fun i ->
            match i with
            | Ssa.Store { base; off; width; origin; _ } ->
              let addr =
                bin_bounds Insn.Add (operand_bounds env base)
                  (operand_bounds env off)
              in
              let disposition =
                match addr.lo, addr.hi with
                | Bound lo, Bound hi
                  when evaluable ssa loop lo.expr && evaluable ssa loop hi.expr
                  ->
                  if bexpr_equal lo.expr hi.expr then
                    Invariant
                      { expr = lo.expr; level = min_level lo.level hi.level }
                  else begin
                    match normalize (Bsub (hi.expr, lo.expr)) with
                    | Bconst d when d < 0 ->
                      (* An empty range: the bounds come from asserts
                         that contradict each other (a branch the loop
                         bound rules out).  A range check over it would
                         never fire, so the store keeps its check. *)
                      Keep
                    | _ ->
                      Range
                        {
                          lo = lo.expr;
                          hi = hi.expr;
                          lo_level = lo.level;
                          hi_level = hi.level;
                        }
                  end
                | (Unbounded | Bound _), _ -> Keep
              in
              out := { origin; block = blk; width; disposition } :: !out
            | Ssa.Def _ | Ssa.Assert _ | Ssa.Call _ | Ssa.Effect _
            | Ssa.Control _ ->
              ())
          b.body)
    ssa.blocks;
  List.rev !out

let level_name = function La -> "La" | Lm -> "Lm" | Lli -> "Lli" | Lc -> "Lc"

(* One Buffer-based renderer per type; the [pp_*] printers print the
   same strings, so the audit journal, [--explain] and the verifier's
   details cannot drift apart. *)
let rec add_bexpr buf = function
  | Bconst c -> Buffer.add_string buf (string_of_int c)
  | Blab (l, o) ->
    Buffer.add_char buf '&';
    Buffer.add_string buf l;
    if o > 0 then Buffer.add_char buf '+';
    if o <> 0 then Buffer.add_string buf (string_of_int o)
  | Bvar v -> Buffer.add_string buf (Ssa.var_to_string v)
  | Badd (a, b) -> add_infix buf a " + " b
  | Bsub (a, b) -> add_infix buf a " - " b
  | Bmul (a, c) -> add_scaled buf a " * " c
  | Bshl (a, c) -> add_scaled buf a " << " c

and add_infix buf a op b =
  Buffer.add_char buf '(';
  add_bexpr buf a;
  Buffer.add_string buf op;
  add_bexpr buf b;
  Buffer.add_char buf ')'

and add_scaled buf a op c =
  Buffer.add_char buf '(';
  add_bexpr buf a;
  Buffer.add_string buf op;
  Buffer.add_string buf (string_of_int c);
  Buffer.add_char buf ')'

let add_bound buf = function
  | Unbounded -> Buffer.add_string buf "⊥"
  | Bound { level; expr } ->
    add_bexpr buf expr;
    Buffer.add_char buf '@';
    Buffer.add_string buf (level_name level)

let render add x =
  let buf = Buffer.create 32 in
  add buf x;
  Buffer.contents buf

let bexpr_to_string = render add_bexpr

let bound_to_string = render add_bound

let bounds_to_string =
  render (fun buf { lo; hi } ->
      Buffer.add_char buf '[';
      add_bound buf lo;
      Buffer.add_string buf ", ";
      add_bound buf hi;
      Buffer.add_char buf ']')

let pp_bexpr ppf e = Fmt.string ppf (bexpr_to_string e)

(* Deterministic listing of an env's fixpoint: sorted by the rendered
   variable name so the audit journal and [--explain] output do not
   depend on hash-table iteration order.  Each name is rendered once,
   before the sort, and each binding's bounds once, after it. *)
let env_bindings (env : env) : (string * string) list =
  VarTbl.fold (fun v b acc -> (Ssa.var_to_string v, v, b) :: acc) env []
  |> List.sort (fun (ra, (a : Ssa.var), _) (rb, (b : Ssa.var), _) ->
         match String.compare ra rb with
         | 0 -> compare a.version b.version
         | c -> c)
  |> List.map (fun (name, _, b) -> (name, bounds_to_string b))
