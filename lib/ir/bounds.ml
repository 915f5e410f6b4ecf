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

(* A loop's environment is an array over the function's dense variable
   ids ({!Ssa.var_id}); [None] is a variable the loop never bound.  The
   names are shared by every loop of a function: the id of a variable,
   the renderings of all its variables, sorted once for {!env_bindings},
   and each variable's self-seed [v@Lli, v@Lli]. *)
type names = {
  id_of : Ssa.var -> int;
  sorted : (string * int) array Lazy.t;  (* (rendering, id), listing order *)
  seeds : bounds option array;  (* by id; empty outside a function *)
}

type env = { names : names; slots : bounds option array }

let get slots i =
  if i < 0 then bot else match slots.(i) with Some b -> b | None -> bot

let lookup env v = get env.slots (env.names.id_of v)

let operand_bounds env = function
  | Ssa.Oimm i -> { lo = const_bound i; hi = const_bound i }
  | Ssa.Olab (l, o) ->
    let b = Bound { level = Lc; expr = Blab (l, o) } in
    { lo = b; hi = b }
  | Ssa.Ovar v -> lookup env v

(* Sorted by the rendered variable name, then version, so the listing
   does not depend on how ids were assigned. *)
let sorted_names n (var : int -> Ssa.var) =
  let named =
    Array.init n (fun i ->
        let v = var i in
        (Ssa.var_to_string v, v.version, i))
  in
  Array.stable_sort
    (fun (ra, va, _) (rb, vb, _) ->
      match String.compare ra rb with 0 -> compare va vb | c -> c)
    named;
  Array.map (fun (name, _, i) -> (name, i)) named

let env_of_list bindings =
  let ids = Hashtbl.create 16 and vars = ref [] in
  List.iter
    (fun (v, _) ->
      if not (Hashtbl.mem ids v) then begin
        Hashtbl.replace ids v (Hashtbl.length ids);
        vars := v :: !vars
      end)
    bindings;
  let vars = Array.of_list (List.rev !vars) in
  let slots = Array.make (Array.length vars) None in
  List.iter (fun (v, b) -> slots.(Hashtbl.find ids v) <- Some b) bindings;
  let id_of v = Option.value ~default:(-1) (Hashtbl.find_opt ids v) in
  let sorted = lazy (sorted_names (Array.length vars) (Array.get vars)) in
  { names = { id_of; sorted; seeds = [||] }; slots }

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

let refine_assert src_bounds rel b =
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

(* A statement's transfer function over variable ids.  Literal operands
   carry their bounds; [Rnone] is a statement without exactly one
   destination or whose transfer is ⊥, which the max-merge can never
   change. *)
type operand = Known of bounds | Var of int

type rule =
  | Rnone
  | Rphi of int array
  | Rmov of operand
  | Rbin of Insn.alu * operand * operand
  | Rassert of int * Tac.relop * operand

(* Everything about a function that does not depend on the loop: its
   statements (in the order the worklist starts from), the use map, each
   variable's self-seed bound, and the sorted renderings. *)
type fn = {
  ssa : Ssa.t;
  names : names;
  stmts : (int * rule) array;  (* destination id and transfer rule *)
  users : int array array;  (* by variable id: its readers, once per read *)
}

let prepare (ssa : Ssa.t) : fn =
  let id = Ssa.var_id ssa in
  let n = Ssa.n_vars ssa in
  let items = ref [] in
  Ssa.iter_instrs ssa (fun _ item -> items := item :: !items);
  let items = Array.of_list !items in
  let operand = function
    | Ssa.Oimm i -> Known { lo = const_bound i; hi = const_bound i }
    | Ssa.Olab (l, o) ->
      let b = Bound { level = Lc; expr = Blab (l, o) } in
      Known { lo = b; hi = b }
    | Ssa.Ovar v -> Var (id v)
  in
  let rule = function
    | `Phi (p : Ssa.phi) ->
      (id p.dst, Rphi (Array.of_list (List.map (fun (_, v) -> id v) p.args)))
    | `Instr (Ssa.Def { dst; rhs = Ssa.Mov op; _ }) -> (id dst, Rmov (operand op))
    | `Instr (Ssa.Def { dst; rhs = Ssa.Bin (alu, a, b); _ }) ->
      (id dst, Rbin (alu, operand a, operand b))
    | `Instr (Ssa.Assert { dst; src; rel; bound; _ }) ->
      (id dst, Rassert (id src, rel, operand bound))
    | `Instr
        ( Ssa.Def { rhs = Ssa.Load _ | Ssa.Callret; _ }
        | Ssa.Store _ | Ssa.Call _ | Ssa.Effect _ | Ssa.Control _ ) ->
      (-1, Rnone)
  in
  let stmts = Array.map rule items in
  (* The use map lists a variable's readers last statement first, once
     per read: the order the worklist re-queues them in, which the
     fixpoint depends on. *)
  let uses = function
    | `Phi (p : Ssa.phi) -> List.map snd p.args
    | `Instr i -> Ssa.instr_uses i
  in
  let reads = Array.map (fun item -> List.map id (uses item)) items in
  let count = Array.make n 0 in
  Array.iter (List.iter (fun u -> count.(u) <- count.(u) + 1)) reads;
  let users = Array.map (fun c -> Array.make c 0) count in
  Array.iteri
    (fun s us ->
      List.iter
        (fun u ->
          count.(u) <- count.(u) - 1;
          users.(u).(count.(u)) <- s)
        us)
    reads;
  let seeds =
    Array.init n (fun i ->
        let b = Bound { level = Lli; expr = Bvar (Ssa.var_of_id ssa i) } in
        Some { lo = b; hi = b })
  in
  let sorted = lazy (sorted_names n (Ssa.var_of_id ssa)) in
  { ssa; names = { id_of = id; sorted; seeds }; stmts; users }

(* Run bound propagation for one loop.  Returns the variable-bounds
   environment; store dispositions are derived by {!dispositions}. *)
let propagate (fn : fn) (loop : Loops.loop) : env * group list =
  let ssa = fn.ssa in
  let in_loop = Array.make (Array.length ssa.blocks) false in
  List.iter (fun b -> in_loop.(b) <- true) loop.body;
  (* Seed loop-invariant variables: anything defined outside the loop
     bounds itself. *)
  let slots =
    Array.mapi
      (fun i seed ->
        match Ssa.def_site_of_id ssa i with
        | Ssa.Dphi (b, _) | Ssa.Dinstr (b, _) when in_loop.(b) -> None
        | Ssa.Dphi _ | Ssa.Dinstr _ | Ssa.Dentry -> seed)
      fn.names.seeds
  in
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
      slots.(fn.names.id_of g.phi_var) <- Some b)
    groups;
  let get = get slots in
  let operand = function Known b -> b | Var i -> get i in
  let compute = function
    | Rnone -> bot
    | Rphi args ->
      (* A phi is bounded only when all arguments agree (monotonic phis
         are seeded separately and protected by the max update). *)
      let n = Array.length args in
      if n = 0 then bot
      else begin
        let first = get args.(0) in
        let rec agree j =
          j >= n || (bounds_equal first (get args.(j)) && agree (j + 1))
        in
        if agree 1 then first else bot
      end
    | Rmov op -> operand op
    | Rbin (alu, a, b) -> bin_bounds alu (operand a) (operand b)
    | Rassert (src, rel, bound) -> refine_assert (get src) rel (operand bound)
  in
  let work = Queue.create () in
  Array.iteri (fun s _ -> Queue.add s work) fn.stmts;
  let steps = ref 0 in
  while not (Queue.is_empty work) && !steps < 200_000 do
    incr steps;
    match fn.stmts.(Queue.pop work) with
    | _, Rnone -> ()
    | dst, rule ->
      let computed = compute rule in
      let current = get dst in
      let lo = max_bound current.lo computed.lo in
      let hi = max_bound current.hi computed.hi in
      (* [max_bound] returns its current argument unless the candidate
         is strictly more useful, so physical inequality is exactly
         "the bound changed" — no normalization needed. *)
      if not (lo == current.lo && hi == current.hi) then begin
        slots.(dst) <- Some { lo; hi };
        Array.iter (fun u -> Queue.add u work) fn.users.(dst)
      end
  done;
  ({ names = fn.names; slots }, groups)

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
   depend on variable ids.  The names are rendered and sorted once per
   function.  Most bindings are self-seeds the loop left alone, and
   their bounds are spelled from the rendered name; the rest are
   rendered here, once each. *)
let env_bindings (env : env) : (string * string) list =
  let seeds = env.names.seeds in
  let lli = "@" ^ level_name Lli in
  Array.fold_right
    (fun (name, i) acc ->
      match env.slots.(i) with
      | Some b as slot ->
        let text =
          if i < Array.length seeds && slot == seeds.(i) then
            String.concat "" [ "["; name; lli; ", "; name; lli; "]" ]
          else bounds_to_string b
        in
        (name, text) :: acc
      | None -> acc)
    (Lazy.force env.names.sorted)
    []
