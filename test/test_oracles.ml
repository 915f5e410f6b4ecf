open Dbp

(* Exactness oracles for the single-pass renderers, the verifier tables
   and the IR.  Each oracle is the straightforward implementation the
   faster code replaced: Fmt-based printers and a sorter that renders
   inside its comparator, a per-site walk of a function's raw TAC, and
   SSA construction and bound propagation over name maps and hash
   tables.  The fast paths must agree with them byte for byte. *)

module B = Ir.Bounds
module S = Ir.Ssa

(* --- oracle SSA and bound propagation -------------------------------------- *)

(* [Ssa.construct] and [Bounds.propagate] before dense ids: def blocks
   in a name map, one hash table per name for phi placement, renaming
   stacks keyed by name, every name's live-in version snapshotted at
   every block, and a hash-table environment per loop that rebuilds the
   statements, the use map and the self-seeds.  The types are the
   library's, so results compare structurally. *)
module Oracle_ssa = struct
  module Tac = Ir.Tac
  module Cfg = Ir.Cfg
  module Dominance = Ir.Dominance

  type var = S.var = { name : Tac.name; version : int }

  let var_equal = S.var_equal
  let instr_uses = S.instr_uses
  let instr_defs = S.instr_defs

  type operand = S.operand = Ovar of var | Oimm of int | Olab of string * int

  type rhs = S.rhs =
    | Mov of operand
    | Bin of Sparc.Insn.alu * operand * operand
    | Load of { base : operand; off : operand; width : Sparc.Insn.width }
    | Callret

  type phi = S.phi = { dst : var; args : (int * var) list }

  type instr = S.instr =
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

  type block = S.block = { mutable phis : phi list; mutable body : instr list }

  type def_site = S.def_site =
    | Dphi of int * phi        (* block id *)
    | Dinstr of int * instr
    | Dentry                   (* implicit version-0 definition at entry *)

  type t = {
    cfg : Cfg.t;
    dom : Dominance.t;
    blocks : block array;
    live_in : (int * (Tac.name * var) list) list;
        (* per reachable block: versions reaching block start (before phis) *)
    defs : (var, def_site) Hashtbl.t;
  }

  let live_in t id =
    match List.assoc_opt id t.live_in with Some l -> l | None -> []

  (* Names never defined keep the implicit entry version. *)
  let live_in_var t id name =
    match List.find_opt (fun (n, _) -> Tac.name_equal n name) (live_in t id) with
    | Some (_, v) -> v
    | None -> { name; version = 0 }

  let def_site t v = Hashtbl.find_opt t.defs v

  let operand_of_tac rename = function
    | Tac.Name n -> Ovar (rename n)
    | Tac.Imm i -> Oimm i
    | Tac.Lab (l, o) -> Olab (l, o)

  let rhs_of_tac rename = function
    | Tac.Mov op -> Mov (operand_of_tac rename op)
    | Tac.Bin (alu, a, b) -> Bin (alu, operand_of_tac rename a, operand_of_tac rename b)
    | Tac.Load { base; off; width } ->
      Load { base = operand_of_tac rename base; off = operand_of_tac rename off; width }
    | Tac.Callret -> Callret

  (* The renaming stacks are keyed on names; a monomorphic table avoids
     the polymorphic hash and compare on every lookup. *)
  module NameTbl = Hashtbl.Make (struct
    type t = Tac.name

    let equal = Tac.name_equal

    let hash = function
      | Tac.Machine r -> Sparc.Reg.index r
      | Tac.Pseudo s -> Hashtbl.hash s
  end)

  let construct ?(extra_call_defs = []) (cfg : Cfg.t) (dom : Dominance.t) : t =
    let n = Cfg.n_blocks cfg in
    let reachable = Cfg.reachable cfg in
    (* 1. names and their def blocks (every name is implicitly defined at
       entry with version 0). *)
    let module NameMap = Map.Make (struct
      type t = Tac.name

      let compare = Tac.name_compare
    end) in
    let def_blocks = ref NameMap.empty in
    let note_def name blk =
      def_blocks :=
        NameMap.update name
          (function None -> Some [ blk ] | Some l -> Some (blk :: l))
          !def_blocks
    in
    Array.iter
      (fun (b : Cfg.block) ->
        if reachable.(b.id) then
          List.iter
            (fun i ->
              List.iter (fun nm -> note_def nm b.id) (Tac.defs ~extra_call_defs i);
              List.iter (fun nm -> note_def nm cfg.entry) (Tac.uses i))
            b.body)
      cfg.blocks;
    (* 2. phi placement via iterated dominance frontiers. *)
    let needs_phi : (int, Tac.name list) Hashtbl.t = Hashtbl.create 64 in
    NameMap.iter
      (fun name blocks ->
        let blocks = cfg.entry :: blocks in
        let placed = Hashtbl.create 8 in
        let work = Queue.create () in
        List.iter (fun b -> Queue.add b work) (List.sort_uniq compare blocks);
        while not (Queue.is_empty work) do
          let b = Queue.pop work in
          List.iter
            (fun d ->
              if reachable.(d) && not (Hashtbl.mem placed d) then begin
                Hashtbl.replace placed d ();
                Hashtbl.replace needs_phi d
                  (name :: Option.value ~default:[] (Hashtbl.find_opt needs_phi d));
                Queue.add d work
              end)
            (Dominance.frontier dom b)
        done)
      !def_blocks;
    (* 3. renaming. *)
    let blocks = Array.init n (fun _ -> { phis = []; body = [] }) in
    let counters : int NameTbl.t = NameTbl.create 64 in
    let stacks : var list NameTbl.t = NameTbl.create 64 in
    let top name =
      match NameTbl.find_opt stacks name with
      | Some (v :: _) -> v
      | Some [] | None -> { name; version = 0 }
    in
    let fresh name =
      let c = Option.value ~default:0 (NameTbl.find_opt counters name) + 1 in
      NameTbl.replace counters name c;
      let v = { name; version = c } in
      NameTbl.replace stacks name (v :: Option.value ~default:[] (NameTbl.find_opt stacks name));
      v
    in
    let pop name =
      match NameTbl.find_opt stacks name with
      | Some (_ :: rest) -> NameTbl.replace stacks name rest
      | Some [] | None -> ()
    in
    let defs_table : (var, def_site) Hashtbl.t = Hashtbl.create 256 in
    let live_in_acc = ref [] in
    (* Initialize phis (dst filled during rename of the block). *)
    Array.iteri
      (fun id b ->
        match Hashtbl.find_opt needs_phi id with
        | Some names ->
          b.phis <-
            List.map
              (fun name -> { dst = { name; version = 0 }; args = [] })
              (List.sort_uniq Tac.name_compare names)
        | None -> ())
      blocks;
    let phi_names_of id = List.map (fun p -> p.dst.name) blocks.(id).phis in
    let rec rename id =
      let b = blocks.(id) in
      let snapshot =
        (* Live-in versions for every name with a definition somewhere. *)
        NameMap.fold (fun name _ acc -> (name, top name) :: acc) !def_blocks []
      in
      live_in_acc := (id, snapshot) :: !live_in_acc;
      let pushed = ref [] in
      b.phis <-
        List.map
          (fun p ->
            let dst = fresh p.dst.name in
            pushed := p.dst.name :: !pushed;
            let p = { p with dst } in
            Hashtbl.replace defs_table dst (Dphi (id, p));
            p)
          b.phis;
      let body =
        List.filter_map
          (fun (i : Tac.instr) ->
            match i with
            | Tac.Label _ -> None
            | Tac.Def { dst; rhs; origin } ->
              let rhs = rhs_of_tac top rhs in
              let dst = fresh dst in
              pushed := dst.name :: !pushed;
              let instr = Def { dst; rhs; origin } in
              Hashtbl.replace defs_table dst (Dinstr (id, instr));
              Some instr
            | Tac.Store { base; off; src; width; origin } ->
              Some
                (Store
                   {
                     base = operand_of_tac top base;
                     off = operand_of_tac top off;
                     src = operand_of_tac top src;
                     width;
                     origin;
                   })
            | Tac.Assert { dst; src; rel; bound; origin } ->
              let src = top src in
              let bound = operand_of_tac top bound in
              let dst = fresh dst in
              pushed := dst.name :: !pushed;
              let instr = Assert { dst; src; rel; bound; origin } in
              Hashtbl.replace defs_table dst (Dinstr (id, instr));
              Some instr
            | Tac.Call { target; origin } ->
              let defs =
                List.map
                  (fun nm ->
                    let v = fresh nm in
                    pushed := nm :: !pushed;
                    v)
                  (Tac.defs ~extra_call_defs i)
              in
              let instr = Call { target; defs; origin } in
              List.iter (fun v -> Hashtbl.replace defs_table v (Dinstr (id, instr))) defs;
              Some instr
            | Tac.Effect { origin } ->
              let defs =
                List.map
                  (fun nm ->
                    let v = fresh nm in
                    pushed := nm :: !pushed;
                    v)
                  (Tac.defs i)
              in
              let instr = Effect { defs; origin } in
              List.iter (fun v -> Hashtbl.replace defs_table v (Dinstr (id, instr))) defs;
              Some instr
            | Tac.Branch { origin; _ } | Tac.Jump { origin; _ } | Tac.Ret { origin }
              ->
              Some (Control { origin }))
          (Cfg.block cfg id).body
      in
      b.body <- body;
      (* Fill successor phi arguments. *)
      List.iter
        (fun s ->
          List.iter
            (fun name ->
              blocks.(s).phis <-
                List.map
                  (fun p ->
                    if Tac.name_equal p.dst.name name then
                      { p with args = (id, top name) :: p.args }
                    else p)
                  blocks.(s).phis)
            (phi_names_of s))
        (Cfg.block cfg id).succs;
      List.iter rename (Dominance.children dom id);
      List.iter pop !pushed
    in
    rename cfg.entry;
    (* Register implicit entry definitions. *)
    NameMap.iter
      (fun name _ -> Hashtbl.replace defs_table { name; version = 0 } Dentry)
      !def_blocks;
    { cfg; dom; blocks; live_in = !live_in_acc; defs = defs_table }

  let block t id = t.blocks.(id)

  let iter_instrs t f =
    Array.iteri
      (fun id b ->
        List.iter (fun p -> f id (`Phi p)) b.phis;
        List.iter (fun i -> f id (`Instr i)) b.body)
      t.blocks
end

module Oracle_bounds = struct
  open Sparc
  module Ssa = Oracle_ssa
  module Tac = Ir.Tac
  module Loops = Ir.Loops

  type level = B.level = La | Lm | Lli | Lc

  type bexpr = B.bexpr =
    | Bconst of int
    | Blab of string * int
    | Bvar of Ssa.var
    | Badd of bexpr * bexpr
    | Bsub of bexpr * bexpr
    | Bmul of bexpr * int
    | Bshl of bexpr * int

  type bound = B.bound = Unbounded | Bound of { level : level; expr : bexpr }

  type bounds = B.bounds = { lo : bound; hi : bound }

  type direction = B.direction = Increasing | Decreasing

  type group = B.group = { phi_var : Ssa.var; init : Ssa.var; direction : direction }

  type disposition = B.disposition =
    | Keep
    | Invariant of { expr : bexpr; level : level }
    | Range of { lo : bexpr; hi : bexpr; lo_level : level; hi_level : level }

  type store_decision = B.store_decision = {
    origin : int;
    block : int;
    width : Insn.width;
    disposition : disposition;
  }

  let normalize = B.normalize
  let bexpr_equal = B.bexpr_equal
  let bexpr_vars = B.bexpr_vars

  let level_rank = function La -> 1 | Lm -> 2 | Lli -> 3 | Lc -> 4

  let min_level a b = if level_rank a <= level_rank b then a else b

  let rec bexpr_depth = function
    | Bconst _ | Blab _ | Bvar _ -> 1
    | Badd (a, b) | Bsub (a, b) -> 1 + max (bexpr_depth a) (bexpr_depth b)
    | Bmul (a, _) | Bshl (a, _) -> 1 + bexpr_depth a

  let max_bexpr_depth = 16

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
end

(* --- oracle printers ------------------------------------------------------- *)

let oracle_pp_name ppf = function
  | Ir.Tac.Machine r -> Fmt.string ppf (Sparc.Reg.to_string r)
  | Ir.Tac.Pseudo s -> Fmt.pf ppf "$%s" s

let oracle_pp_var ppf (v : S.var) =
  Fmt.pf ppf "%a.%d" oracle_pp_name v.S.name v.S.version

let rec oracle_pp_bexpr ppf = function
  | B.Bconst c -> Fmt.int ppf c
  | B.Blab (l, 0) -> Fmt.pf ppf "&%s" l
  | B.Blab (l, o) -> Fmt.pf ppf "&%s%+d" l o
  | B.Bvar v -> oracle_pp_var ppf v
  | B.Badd (a, b) -> Fmt.pf ppf "(%a + %a)" oracle_pp_bexpr a oracle_pp_bexpr b
  | B.Bsub (a, b) -> Fmt.pf ppf "(%a - %a)" oracle_pp_bexpr a oracle_pp_bexpr b
  | B.Bmul (a, c) -> Fmt.pf ppf "(%a * %d)" oracle_pp_bexpr a c
  | B.Bshl (a, c) -> Fmt.pf ppf "(%a << %d)" oracle_pp_bexpr a c

let oracle_pp_level ppf l = Fmt.string ppf (B.level_name l)

let oracle_pp_bound ppf = function
  | B.Unbounded -> Fmt.string ppf "⊥"
  | B.Bound { level; expr } ->
    Fmt.pf ppf "%a@%a" oracle_pp_bexpr expr oracle_pp_level level

let oracle_pp_bounds ppf { B.lo; hi } =
  Fmt.pf ppf "[%a, %a]" oracle_pp_bound lo oracle_pp_bound hi

let oracle_pp_check ppf = function
  | Loopopt.Inv { expr; origin; level; _ } ->
    Fmt.pf ppf "inv@%d(%a@%a)" origin oracle_pp_bexpr expr oracle_pp_level
      level
  | Loopopt.Rng { lo; hi; origin; lo_level; hi_level; _ } ->
    Fmt.pf ppf "rng@%d(%a@%a, %a@%a)" origin oracle_pp_bexpr lo
      oracle_pp_level lo_level oracle_pp_bexpr hi oracle_pp_level hi_level

(* The lattice listing: sorted by rendering both sides of every
   comparison, then each binding rendered again. *)
let oracle_lattice (env : Oracle_bounds.env) =
  Oracle_bounds.VarTbl.fold (fun v b acc -> (v, b) :: acc) env []
  |> List.sort (fun ((a : S.var), _) ((b : S.var), _) ->
         let render (v : S.var) = Fmt.str "%a" oracle_pp_var v in
         match String.compare (render a) (render b) with
         | 0 -> compare a.S.version b.S.version
         | c -> c)
  |> List.map (fun (v, b) ->
         (Fmt.str "%a" oracle_pp_var v, Fmt.str "%a" oracle_pp_bounds b))

(* --- oracle verifier lookups ----------------------------------------------- *)

let oracle_fn_of_origin (inst : Instrument.t) origin =
  List.find_opt
    (fun (fi : Loopopt.fn_input) ->
      List.exists (fun (idx, _) -> idx = origin) fi.Loopopt.items)
    inst.Instrument.fn_inputs

(* One walk of the whole function per queried origin. *)
let oracle_store_home (instrs : Ir.Tac.instr list) origin =
  let module T = Ir.Tac in
  let module Reg = Sparc.Reg in
  let holds : (Reg.t, string * int) Hashtbl.t = Hashtbl.create 8 in
  let result = ref None in
  List.iter
    (fun ins ->
      (match ins with
      | T.Store { base; off; width; origin = o; _ }
        when o = origin && !result = None ->
        let h =
          match (base, off) with
          | T.Name (T.Machine r), T.Imm c when Reg.equal r Reg.fp ->
            Verify.Hlocal c
          | T.Name (T.Machine r), T.Imm c -> (
            match Hashtbl.find_opt holds r with
            | Some (l, b) -> Verify.Hglobal (l, b + c)
            | None -> Verify.Hnone)
          | T.Lab (l, b), T.Imm c -> Verify.Hglobal (l, b + c)
          | _ -> Verify.Hnone
        in
        result := Some (h, width)
      | _ -> ());
      match ins with
      | T.Label _ | T.Branch _ | T.Jump _ | T.Ret _ | T.Call _ | T.Effect _ ->
        Hashtbl.reset holds
      | T.Def { dst; rhs; _ } -> (
        (match dst with
        | T.Machine r -> Hashtbl.remove holds r
        | T.Pseudo _ -> ());
        match (rhs, dst) with
        | T.Mov (T.Lab (l, o)), T.Machine r -> Hashtbl.replace holds r (l, o)
        | T.Mov (T.Name (T.Machine s)), T.Machine r -> (
          match Hashtbl.find_opt holds s with
          | Some lo -> Hashtbl.replace holds r lo
          | None -> ())
        | _ -> ())
      | _ -> ())
    instrs;
  !result

(* --- random printer inputs ------------------------------------------------- *)

let var_gen =
  QCheck.Gen.(
    map2
      (fun name version -> { S.name; version })
      (oneof
         [
           map (fun i -> Ir.Tac.Machine (Sparc.Reg.of_index i)) (int_range 0 31);
           map
             (fun s -> Ir.Tac.Pseudo s)
             (oneofl [ "a"; "main.i"; "matmul.j"; "x_1" ]);
         ])
      (int_range 0 1000))

(* [Test_ir.bexpr_gen] covers negative label offsets, [Bmul]/[Bshl]
   and pseudo variables; splice in machine-register variables too. *)
let bexpr_gen =
  QCheck.Gen.(
    map2
      (fun e v -> B.Badd (e, B.Bsub (B.Bvar v, e)))
      Test_ir.bexpr_gen var_gen)

let level_gen = QCheck.Gen.oneofl [ B.La; B.Lm; B.Lli; B.Lc ]

let bound_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return B.Unbounded);
        (3, map2 (fun level expr -> B.Bound { level; expr }) level_gen bexpr_gen);
      ])

let bounds_gen = QCheck.Gen.map2 (fun lo hi -> { B.lo; hi }) bound_gen bound_gen

let check_gen =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun expr origin level ->
            Loopopt.Inv { expr; width = Sparc.Insn.Word; origin; level })
          bexpr_gen (int_range 0 100_000) level_gen;
        map3
          (fun (lo, hi) origin (lo_level, hi_level) ->
            Loopopt.Rng
              { lo; hi; width = Sparc.Insn.Word; origin; lo_level; hi_level })
          (pair bexpr_gen bexpr_gen) (int_range 0 100_000)
          (pair level_gen level_gen);
      ])

let agrees name gen render oracle =
  QCheck.Test.make ~name ~count:500
    (QCheck.make ~print:(Fmt.str "%a" oracle) gen)
    (fun x -> render x = Fmt.str "%a" oracle x)

let printer_qchecks =
  List.map QCheck_alcotest.to_alcotest
    [
      agrees "var_to_string = oracle" var_gen S.var_to_string oracle_pp_var;
      agrees "bexpr_to_string = oracle" bexpr_gen B.bexpr_to_string
        oracle_pp_bexpr;
      agrees "pp_bexpr = oracle" bexpr_gen (Fmt.str "%a" B.pp_bexpr)
        oracle_pp_bexpr;
      agrees "bound_to_string = oracle" bound_gen B.bound_to_string
        oracle_pp_bound;
      agrees "bounds_to_string = oracle" bounds_gen B.bounds_to_string
        oracle_pp_bounds;
      agrees "check_to_string = oracle" check_gen Loopopt.check_to_string
        oracle_pp_check;
      QCheck.Test.make ~name:"env_bindings = oracle sort and render"
        ~count:200
        (QCheck.make QCheck.Gen.(list_size (int_range 0 40) (pair var_gen bounds_gen)))
        (fun bindings ->
          let env = Oracle_bounds.VarTbl.create 16 in
          List.iter (fun (v, b) -> Oracle_bounds.VarTbl.replace env v b) bindings;
          B.env_bindings (B.env_of_list bindings) = oracle_lattice env);
    ]

(* --- the ten workloads ------------------------------------------------------ *)

let sessions =
  lazy
    (List.map
       (fun (w : Workloads.Workload.t) ->
         ( w.Workloads.Workload.name,
           Session.create
             ~options:{ Instrument.default_options with opt = Instrument.O_full }
             w.Workloads.Workload.source ))
       Workloads.Spec.all)

let label_item (fi : Loopopt.fn_input) label =
  List.find_map
    (fun (idx, item) ->
      match item with
      | Sparc.Asm.Label l when l = label -> Some idx
      | _ -> None)
    fi.Loopopt.items

(* Every optimized loop's recorded lattice equals the oracle listing of
   the oracle fixpoint of the same loop, rebuilt from the retained
   inputs. *)
let test_lattice_matches_oracle () =
  let loops_checked = ref 0 in
  List.iter
    (fun (name, (sess : Session.t)) ->
      let inst = sess.Session.plan in
      List.iter
        (fun (p : Loopopt.loop_plan) ->
          let fi =
            List.find
              (fun (fi : Loopopt.fn_input) -> fi.Loopopt.fname = p.Loopopt.fname)
              inst.Instrument.fn_inputs
          in
          let cfg = Ir.Cfg.insert_asserts (Ir.Cfg.build fi.Loopopt.tac) in
          let dom = Ir.Dominance.compute cfg in
          let ssa =
            Oracle_ssa.construct ~extra_call_defs:fi.Loopopt.extra_call_defs cfg
              dom
          in
          let loop =
            List.find
              (fun (l : Ir.Loops.loop) ->
                match (Ir.Cfg.block cfg l.Ir.Loops.header).Ir.Cfg.labels with
                | label :: _ -> label_item fi label = Some p.Loopopt.header_item
                | [] -> false)
              (Ir.Loops.find cfg dom)
          in
          let env, _ = Oracle_bounds.propagate ssa loop in
          incr loops_checked;
          Alcotest.(check (list (pair string string)))
            (Printf.sprintf "%s loop %d lattice" name p.Loopopt.loop_id)
            (oracle_lattice env) p.Loopopt.lattice)
        inst.Instrument.loop_plans)
    (Lazy.force sessions);
  Alcotest.(check bool) "some loops optimized" true (!loops_checked > 0)

(* One function's dense-id IR against the oracles: phis (names and
   arguments in order) and renamed bodies, every def site, the live-in
   version of every name (and of one the function lacks) at every loop
   header, and per loop the monotonic groups, the lattice listing and
   the store dispositions.  Returns the number of loops compared. *)
let check_ir_matches_oracle what (fi : Loopopt.fn_input) =
  let fail fmt = Alcotest.failf ("%s %s: " ^^ fmt) what fi.Loopopt.fname in
  let cfg = Ir.Cfg.insert_asserts (Ir.Cfg.build fi.Loopopt.tac) in
  let dom = Ir.Dominance.compute cfg in
  let extra_call_defs = fi.Loopopt.extra_call_defs in
  let ssa = S.construct ~extra_call_defs cfg dom in
  let old = Oracle_ssa.construct ~extra_call_defs cfg dom in
  if ssa.S.blocks <> old.Oracle_ssa.blocks then fail "phis or bodies differ";
  Hashtbl.iter
    (fun v site ->
      if S.def_site ssa v <> Some site then
        fail "def site of %s differs" (S.var_to_string v))
    old.Oracle_ssa.defs;
  if S.n_vars ssa <> Hashtbl.length old.Oracle_ssa.defs then
    fail "%d variable ids for %d definitions" (S.n_vars ssa)
      (Hashtbl.length old.Oracle_ssa.defs);
  let names =
    Ir.Tac.Pseudo "no.such.home"
    :: List.concat_map (fun (_, l) -> List.map fst l) old.Oracle_ssa.live_in
    |> List.sort_uniq Ir.Tac.name_compare
  in
  let fn = B.prepare ssa in
  let loops = Ir.Loops.find cfg dom in
  List.iter
    (fun (l : Ir.Loops.loop) ->
      List.iter
        (fun name ->
          let v = S.live_in_var ssa l.header name in
          if not (S.var_equal v (Oracle_ssa.live_in_var old l.header name)) then
            fail "live-in %s at header %d" (S.var_to_string v) l.header)
        names;
      if B.monotonic_groups ssa l <> Oracle_bounds.monotonic_groups old l then
        fail "monotonic groups at header %d" l.header;
      let env, _ = B.propagate fn l in
      let old_env, _ = Oracle_bounds.propagate old l in
      if B.env_bindings env <> oracle_lattice old_env then
        fail "lattice at header %d" l.header;
      if B.dispositions ssa l env <> Oracle_bounds.dispositions old l old_env then
        fail "dispositions at header %d" l.header)
    loops;
  List.length loops

let test_ir_matches_oracle () =
  let loops = ref 0 in
  List.iter
    (fun (name, (sess : Session.t)) ->
      List.iter
        (fun fi -> loops := !loops + check_ir_matches_oracle name fi)
        sess.Session.plan.Instrument.fn_inputs)
    (Lazy.force sessions);
  Alcotest.(check bool) "some loops compared" true (!loops > 0)

let prop_ir_matches_oracle =
  QCheck.Test.make ~name:"random programs: dense-id IR = oracle" ~count:30
    Test_fuzz.arb_program (fun src ->
      let options = { Instrument.default_options with opt = Instrument.O_full } in
      List.iter
        (fun fi -> ignore (check_ir_matches_oracle "random" fi))
        (Session.create ~options src).Session.plan.Instrument.fn_inputs;
      true)

(* Every symbol-eliminated site resolves to the same function, and every
   store to the same home, as the per-site oracle walks. *)
let test_verify_tables_match_oracle () =
  let sym_sites = ref 0 in
  List.iter
    (fun (name, (sess : Session.t)) ->
      let inst = sess.Session.plan in
      let by_origin = Verify.fn_by_origin inst in
      let fname (fi : Loopopt.fn_input) = fi.Loopopt.fname in
      List.iter
        (fun (s : Instrument.site) ->
          match s.Instrument.status with
          | Instrument.Sym_eliminated _ ->
            incr sym_sites;
            Alcotest.(check (option string))
              (Printf.sprintf "%s origin %d function" name s.Instrument.origin)
              (Option.map fname (oracle_fn_of_origin inst s.Instrument.origin))
              (Option.map fname (Hashtbl.find_opt by_origin s.Instrument.origin))
          | Instrument.Checked | Instrument.Loop_eliminated _ -> ())
        inst.Instrument.sites;
      List.iter
        (fun (fi : Loopopt.fn_input) ->
          let raw =
            Ir.Lift.lift_slice
              { Ir.Lift.fname = fi.Loopopt.fname; items = fi.Loopopt.items }
          in
          let homes = Verify.store_homes raw in
          List.iter
            (function
              | Ir.Tac.Store { origin; _ } ->
                if oracle_store_home raw origin <> Hashtbl.find_opt homes origin
                then
                  Alcotest.failf "%s %s: store at origin %d re-homed differently"
                    name fi.Loopopt.fname origin
              | _ -> ())
            raw)
        inst.Instrument.fn_inputs)
    (Lazy.force sessions);
  Alcotest.(check bool) "some sites symbol-eliminated" true (!sym_sites > 0);
  (* Two stores at one origin: the first one's home wins, as in the
     oracle's walk, even though a label in between resets the holds. *)
  let r = Ir.Tac.Machine (Sparc.Reg.o 1) in
  let store =
    Ir.Tac.Store
      { base = Ir.Tac.Name r; off = Ir.Tac.Imm 4; src = Ir.Tac.Imm 0;
        width = Sparc.Insn.Word; origin = 7 }
  in
  let raw =
    [ Ir.Tac.Def { dst = r; rhs = Ir.Tac.Mov (Ir.Tac.Lab ("g", 0)); origin = 6 };
      store; Ir.Tac.Label "L"; store ]
  in
  Alcotest.(check bool) "first store at an origin wins" true
    (oracle_store_home raw 7 = Hashtbl.find_opt (Verify.store_homes raw) 7
    && oracle_store_home raw 7 = Some (Verify.Hglobal ("g", 4), Sparc.Insn.Word))

(* --- oracle profiler call tree ----------------------------------------------- *)

(* [Profile.transfer] and the call tree before flat arrays: nodes are
   records linked by pointers, a call moves [cur] and swaps the child it
   found to the front of its parent's array, and every transfer resolves
   its callee from the destination pc.  Only what the function table and
   the folded stacks read is kept. *)
module Oracle_profile = struct
  type node = {
    n_fn : int;
    n_parent : node;
    mutable n_kids : node array;
    mutable n_nkids : int;
    mutable n_self : int;
  }

  type t = {
    text_base : int;
    mutable fn_name : string array;
    mutable nfns : int;
    fn_at : int array;
    fn_outside : (int, int) Hashtbl.t;
    mutable static_fns : (int * int) array;
    mutable fn_calls : int array;
    mutable fn_excl_i : int array;
    mutable fn_excl_c : int array;
    mutable fn_incl_i : int array;
    mutable fn_incl_c : int array;
    mutable fn_depth : int array;
    mutable st_fn : int array;
    mutable st_entry_i : int array;
    mutable st_entry_c : int array;
    mutable depth : int;
    mutable root : node;
    mutable cur : node;
    mutable last_i : int;
    mutable last_c : int;
  }

  let mk_node fn parent =
    { n_fn = fn; n_parent = parent; n_kids = [||]; n_nkids = 0; n_self = 0 }

  let mk_root fn =
    let rec root = { n_fn = fn; n_parent = root; n_kids = [||]; n_nkids = 0; n_self = 0 } in
    root

  let grow a len init =
    if Array.length a >= len then a
    else begin
      let b = Array.make (max len (2 * Array.length a + 8)) init in
      Array.blit a 0 b 0 (Array.length a);
      b
    end

  let slot_of t addr =
    let off = addr - t.text_base in
    if off land 3 = 0 && off lsr 2 < Array.length t.fn_at then off lsr 2 else -1

  let register_fn t addr name =
    let slot = slot_of t addr in
    let known =
      if slot >= 0 then t.fn_at.(slot)
      else Option.value ~default:(-1) (Hashtbl.find_opt t.fn_outside addr)
    in
    if known >= 0 then known
    else begin
      let id = t.nfns in
      t.fn_name <- grow t.fn_name (id + 1) "";
      t.fn_calls <- grow t.fn_calls (id + 1) 0;
      t.fn_excl_i <- grow t.fn_excl_i (id + 1) 0;
      t.fn_excl_c <- grow t.fn_excl_c (id + 1) 0;
      t.fn_incl_i <- grow t.fn_incl_i (id + 1) 0;
      t.fn_incl_c <- grow t.fn_incl_c (id + 1) 0;
      t.fn_depth <- grow t.fn_depth (id + 1) 0;
      t.fn_name.(id) <- name;
      t.nfns <- id + 1;
      if slot >= 0 then t.fn_at.(slot) <- id else Hashtbl.add t.fn_outside addr id;
      id
    end

  let fn_of_pc t pc =
    let a = t.static_fns in
    let lo = ref 0 and hi = ref (Array.length a - 1) and best = ref (snd a.(0)) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let addr, id = a.(mid) in
      if addr <= pc then begin
        best := id;
        lo := mid + 1
      end
      else hi := mid - 1
    done;
    !best

  let create ~text_base ~n ~functions ~entry =
    let t =
      {
        text_base;
        fn_name = [||];
        nfns = 0;
        fn_at = Array.make n (-1);
        fn_outside = Hashtbl.create 1;
        static_fns = [||];
        fn_calls = [||];
        fn_excl_i = [||];
        fn_excl_c = [||];
        fn_incl_i = [||];
        fn_incl_c = [||];
        fn_depth = [||];
        st_fn = Array.make 64 0;
        st_entry_i = Array.make 64 0;
        st_entry_c = Array.make 64 0;
        depth = 0;
        root = mk_root 0;
        cur = mk_root 0;
        last_i = 0;
        last_c = 0;
      }
    in
    let fns =
      match functions with
      | [] -> [ (entry, Printf.sprintf "0x%x" entry) ]
      | _ -> List.sort_uniq compare functions
    in
    t.static_fns <-
      Array.of_list (List.map (fun (addr, name) -> (addr, register_fn t addr name)) fns);
    let entry_fn = fn_of_pc t entry in
    t.root <- mk_root entry_fn;
    t.cur <- t.root;
    t.st_fn.(0) <- entry_fn;
    t.depth <- 1;
    t.fn_calls.(entry_fn) <- 1;
    t.fn_depth.(entry_fn) <- 1;
    t

  let flush t ~instrs ~cycles =
    let di = instrs - t.last_i and dc = cycles - t.last_c in
    if di <> 0 || dc <> 0 then begin
      let fn = t.st_fn.(t.depth - 1) in
      t.fn_excl_i.(fn) <- t.fn_excl_i.(fn) + di;
      t.fn_excl_c.(fn) <- t.fn_excl_c.(fn) + dc;
      t.cur.n_self <- t.cur.n_self + di;
      t.last_i <- instrs;
      t.last_c <- cycles
    end

  let callee t pc =
    let slot = slot_of t pc in
    let id = if slot >= 0 then t.fn_at.(slot) else -1 in
    if id >= 0 then id else register_fn t pc (Printf.sprintf "0x%x" pc)

  let child parent fn =
    let n = parent.n_nkids in
    let i = ref 0 in
    while !i < n && parent.n_kids.(!i).n_fn <> fn do
      incr i
    done;
    let i = !i in
    if i = n then begin
      let nd = mk_node fn parent in
      parent.n_kids <- grow parent.n_kids (n + 1) nd;
      parent.n_kids.(n) <- nd;
      parent.n_nkids <- n + 1
    end;
    let kids = parent.n_kids in
    let nd = kids.(i) in
    if i > 0 then begin
      kids.(i) <- kids.(0);
      kids.(0) <- nd
    end;
    nd

  let transfer t ~kind ~pc ~instrs ~cycles =
    flush t ~instrs ~cycles;
    if kind = Profile.kind_call then begin
      let fn = callee t pc in
      let d = t.depth in
      if d = Array.length t.st_fn then begin
        t.st_fn <- grow t.st_fn (d + 1) 0;
        t.st_entry_i <- grow t.st_entry_i (d + 1) 0;
        t.st_entry_c <- grow t.st_entry_c (d + 1) 0
      end;
      t.st_fn.(d) <- fn;
      t.st_entry_i.(d) <- instrs;
      t.st_entry_c.(d) <- cycles;
      t.cur <- child t.cur fn;
      t.depth <- d + 1;
      t.fn_calls.(fn) <- t.fn_calls.(fn) + 1;
      t.fn_depth.(fn) <- t.fn_depth.(fn) + 1
    end
    else if kind = Profile.kind_ret && t.depth > 1 then begin
      let d = t.depth - 1 in
      let fn = t.st_fn.(d) in
      t.depth <- d;
      t.fn_depth.(fn) <- t.fn_depth.(fn) - 1;
      if t.fn_depth.(fn) = 0 then begin
        t.fn_incl_i.(fn) <- t.fn_incl_i.(fn) + (instrs - t.st_entry_i.(d));
        t.fn_incl_c.(fn) <- t.fn_incl_c.(fn) + (cycles - t.st_entry_c.(d))
      end;
      t.cur <- t.cur.n_parent
    end

  let folded_of_tree t =
    let acc = ref [] in
    let rec walk node path =
      let path =
        if path = "" then t.fn_name.(node.n_fn) else path ^ ";" ^ t.fn_name.(node.n_fn)
      in
      if node.n_self > 0 then acc := (path, node.n_self) :: !acc;
      let kids = Array.to_list (Array.sub node.n_kids 0 node.n_nkids) in
      let kids =
        List.sort (fun a b -> compare t.fn_name.(a.n_fn) t.fn_name.(b.n_fn)) kids
      in
      List.iter (fun k -> walk k path) kids
    in
    walk t.root "";
    List.sort compare !acc

  let functions t ~instrs ~cycles =
    flush t ~instrs ~cycles;
    let incl_i = Array.sub t.fn_incl_i 0 t.nfns in
    let incl_c = Array.sub t.fn_incl_c 0 t.nfns in
    let seen = Hashtbl.create 16 in
    for d = 0 to t.depth - 1 do
      let fn = t.st_fn.(d) in
      if not (Hashtbl.mem seen fn) then begin
        Hashtbl.add seen fn ();
        incl_i.(fn) <- incl_i.(fn) + (instrs - t.st_entry_i.(d));
        incl_c.(fn) <- incl_c.(fn) + (cycles - t.st_entry_c.(d))
      end
    done;
    List.init t.nfns (fun id ->
        {
          Profile.fr_name = t.fn_name.(id);
          fr_calls = t.fn_calls.(id);
          fr_excl_instrs = t.fn_excl_i.(id);
          fr_excl_cycles = t.fn_excl_c.(id);
          fr_incl_instrs = incl_i.(id);
          fr_incl_cycles = incl_c.(id);
        })
    |> List.filter (fun (f : Profile.fn_report) -> f.fr_calls > 0 || f.fr_excl_instrs > 0)
    |> List.sort (fun (a : Profile.fn_report) (b : Profile.fn_report) ->
           match compare b.fr_excl_instrs a.fr_excl_instrs with
           | 0 -> compare a.fr_name b.fr_name
           | c -> c)
end

(* The function table a profiled session starts from: the compiler's
   functions, then every named call target in the image. *)
let profile_functions (s : Session.t) =
  let image = s.Session.image in
  let seen = Hashtbl.create 32 in
  let add acc addr name =
    if addr >= 0 && not (Hashtbl.mem seen addr) then begin
      Hashtbl.add seen addr ();
      (addr, name) :: acc
    end
    else acc
  in
  let acc =
    List.fold_left (fun acc (a, f) -> add acc a f) [] (Instrument.functions s.Session.sites)
  in
  Array.fold_left
    (fun acc insn ->
      match insn with
      | Sparc.Insn.Call { target = Sparc.Insn.Abs a } ->
        add acc a
          (match Sparc.Assembler.label_of_addr image a with
          | Some l -> l
          | None -> Printf.sprintf "0x%x" a)
      | _ -> acc)
    acc image.Sparc.Assembler.text

(* A profiled session's exports against the oracle's: a second,
   unprofiled session of the same source steps one instruction at a
   time and hands every call and return to the oracle, classified as
   the interpreter classifies them.  The oracle's function table and
   folded stacks replace the report's; the JSON and the folded text
   must not change. *)
let profile_matches_oracle ~options ~watch src =
  let session ~profile =
    let s = Session.create ~options ~profile src in
    ignore (Debugger.watch (Debugger.create s) watch);
    s
  in
  let s = session ~profile:true in
  ignore (Session.run ~fuel:50_000_000 s);
  let rep = Session.profile_report s in
  let o = session ~profile:false in
  let cpu = o.Session.cpu and image = o.Session.image in
  let oracle =
    Oracle_profile.create ~text_base:image.Sparc.Assembler.text_base
      ~n:(Array.length image.Sparc.Assembler.text) ~functions:(profile_functions o)
      ~entry:image.Sparc.Assembler.entry
  in
  while Machine.Cpu.halted cpu = None do
    let kind =
      match Machine.Cpu.fetch_at cpu (Machine.Cpu.pc cpu) with
      | Sparc.Insn.Call _ -> Profile.kind_call
      | Sparc.Insn.Jmpl { rd = Sparc.Reg.G 0; _ } -> Profile.kind_ret
      | Sparc.Insn.Jmpl _ -> Profile.kind_call
      | _ -> Profile.kind_plain
    in
    Machine.Cpu.step cpu;
    if kind <> Profile.kind_plain then
      Oracle_profile.transfer oracle ~kind ~pc:(Machine.Cpu.pc cpu)
        ~instrs:(Machine.Cpu.instr_count cpu) ~cycles:(Machine.Cpu.cycle_count cpu)
  done;
  let instrs = Machine.Cpu.instr_count cpu and cycles = Machine.Cpu.cycle_count cpu in
  (* [functions] flushes the last interval, so it runs first. *)
  let p_functions = Oracle_profile.functions oracle ~instrs ~cycles in
  let want = { rep with Profile.p_functions; p_folded = Oracle_profile.folded_of_tree oracle } in
  Profile.to_json_string rep = Profile.to_json_string want
  && Profile.folded_to_string rep = Profile.folded_to_string want

let test_profile_matches_oracle () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let options =
        { Instrument.default_options with
          opt = Instrument.O_symbol;
          fortran_idiom = Workloads.Workload.fortran_idiom w }
      in
      let out = Minic.Compile.compile w.source in
      let g = (List.hd (Sparc.Symtab.globals out.Minic.Codegen.symtab)).Sparc.Symtab.name in
      Alcotest.(check bool) (w.name ^ ": profile exports = oracle") true
        (profile_matches_oracle ~options ~watch:g w.source))
    Workloads.Spec.all

let prop_profile_matches_oracle =
  QCheck.Test.make ~name:"random programs: profile exports = oracle" ~count:30
    Test_fuzz.arb_program (fun src ->
      profile_matches_oracle
        ~options:{ Instrument.default_options with opt = Instrument.O_symbol }
        ~watch:"g0" src)

let suites =
  [
    ("oracle.render", printer_qchecks);
    ( "oracle.workloads",
      [
        Alcotest.test_case "lattice = oracle listing" `Quick
          test_lattice_matches_oracle;
        Alcotest.test_case "verifier tables = per-site walks" `Quick
          test_verify_tables_match_oracle;
        Alcotest.test_case "dense-id IR = oracle" `Quick test_ir_matches_oracle;
        QCheck_alcotest.to_alcotest prop_ir_matches_oracle;
        Alcotest.test_case "profile exports = oracle" `Quick test_profile_matches_oracle;
        QCheck_alcotest.to_alcotest prop_profile_matches_oracle;
      ] );
  ]
