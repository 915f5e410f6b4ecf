type var = { name : Tac.name; version : int }

let var_equal a b = a.version = b.version && Tac.name_equal a.name b.name

type operand = Ovar of var | Oimm of int | Olab of string * int

type rhs =
  | Mov of operand
  | Bin of Sparc.Insn.alu * operand * operand
  | Load of { base : operand; off : operand; width : Sparc.Insn.width }
  | Callret

type phi = { dst : var; args : (int * var) list }

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
  | Dphi of int * phi        (* block id *)
  | Dinstr of int * instr
  | Dentry                   (* implicit version-0 definition at entry *)

(* Dense ids.  [construct] interns each of the function's names once;
   name [k]'s versions [0 .. n] then occupy the consecutive variable
   ids [first.(k) .. first.(k + 1) - 1], so the per-variable tables
   here, and the bound environments built on them, are arrays. *)
module Stbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type index = {
  regs : int array;  (* name id by [Reg.index]; -1 for an absent register *)
  pseudos : int Stbl.t;  (* name id by pseudo name *)
  first : int array;  (* by name id, plus one past the last variable *)
  vars : var array;  (* by variable id *)
  sites : def_site array;  (* by variable id *)
  pre : int array;  (* dominator-tree preorder number; -1 if unreachable *)
  last : int array;  (* the largest preorder number in the block's subtree *)
}

type t = { cfg : Cfg.t; dom : Dominance.t; blocks : block array; index : index }

let lookup regs pseudos = function
  | Tac.Machine r -> regs.(Sparc.Reg.index r)
  | Tac.Pseudo s -> Option.value ~default:(-1) (Stbl.find_opt pseudos s)

let n_vars t = Array.length t.index.vars

let var_id t v =
  let ix = t.index in
  let k = lookup ix.regs ix.pseudos v.name in
  if k < 0 || v.version < 0 || ix.first.(k) + v.version >= ix.first.(k + 1)
  then -1
  else ix.first.(k) + v.version

let var_of_id t i = t.index.vars.(i)

let def_site_of_id t i = t.index.sites.(i)

let def_site t v =
  match var_id t v with -1 -> None | i -> Some t.index.sites.(i)

let site_block = function Dphi (b, _) | Dinstr (b, _) -> b | Dentry -> -1

(* The version reaching a block's start is the top of the renaming
   stack when the walk entered the block: the highest version defined
   in a strict dominator.  Versions are numbered in dominator-tree
   preorder, so those defined before the block are a prefix, found by
   bisection, and the answer is the last of them whose block's subtree
   contains this one.  Names never defined keep the implicit entry
   version. *)
let live_in_var t b name =
  let ix = t.index in
  let k = lookup ix.regs ix.pseudos name in
  if k < 0 || ix.pre.(b) < 0 then { name; version = 0 }
  else begin
    let p = ix.pre.(b) and base = ix.first.(k) in
    let block_of c = site_block ix.sites.(base + c) in
    let lo = ref 0 and hi = ref (ix.first.(k + 1) - base - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if ix.pre.(block_of mid) < p then lo := mid else hi := mid - 1
    done;
    let rec walk c =
      if c = 0 || p <= ix.last.(block_of c) then ix.vars.(base + c)
      else walk (c - 1)
    in
    walk !lo
  end

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

let construct ?(extra_call_defs = []) (cfg : Cfg.t) (dom : Dominance.t) : t =
  let n = Cfg.n_blocks cfg in
  let reachable = Dominance.reachable dom in
  (* 1. intern the names of the reachable code, counting each name's
     definitions and noting its def blocks (every name is implicitly
     defined at entry with version 0). *)
  let regs = Array.make 32 (-1) and pseudos = Stbl.create 16 in
  let names = ref [] and n_names = ref 0 and defs = ref [] in
  let intern name =
    match lookup regs pseudos name with
    | -1 ->
      let k = !n_names in
      incr n_names;
      names := name :: !names;
      (match name with
      | Tac.Machine r -> regs.(Sparc.Reg.index r) <- k
      | Tac.Pseudo s -> Stbl.replace pseudos s k);
      k
    | k -> k
  in
  Array.iter
    (fun (b : Cfg.block) ->
      if reachable b.id then
        List.iter
          (fun i ->
            List.iter
              (fun nm -> defs := (intern nm, b.id) :: !defs)
              (Tac.defs ~extra_call_defs i);
            List.iter (fun nm -> ignore (intern nm)) (Tac.uses i))
          b.body)
    cfg.blocks;
  let n_names = !n_names and names = Array.of_list (List.rev !names) in
  let n_defs = Array.make n_names 0 and def_blocks = Array.make n_names [] in
  List.iter
    (fun (k, blk) ->
      n_defs.(k) <- n_defs.(k) + 1;
      match def_blocks.(k) with
      | b :: _ when b = blk -> ()
      | bs -> def_blocks.(k) <- blk :: bs)
    !defs;
  let id_of = lookup regs pseudos in
  (* 2. phi placement via iterated dominance frontiers, one name at a
     time in descending [Tac.name_compare] order, so that prepending
     leaves each block's phi names ascending.  [placed] holds the last
     name placed at each block. *)
  let order = Array.init n_names Fun.id in
  Array.sort (fun a b -> Tac.name_compare names.(b) names.(a)) order;
  let needs_phi = Array.make n [] and placed = Array.make n (-1) in
  Array.iter
    (fun k ->
      let rec drain = function
        | [] -> ()
        | b :: work ->
          drain
            (List.fold_left
               (fun work d ->
                 if reachable d && placed.(d) <> k then begin
                   placed.(d) <- k;
                   needs_phi.(d) <- k :: needs_phi.(d);
                   n_defs.(k) <- n_defs.(k) + 1;
                   d :: work
                 end
                 else work)
               work (Dominance.frontier dom b))
      in
      drain (cfg.entry :: def_blocks.(k)))
    order;
  (* 3. variable ids: each name's version 0, then one per definition. *)
  let first = Array.make (n_names + 1) 0 in
  for k = 0 to n_names - 1 do
    first.(k + 1) <- first.(k) + n_defs.(k) + 1
  done;
  let vars = Array.make first.(n_names) { name = Tac.Pseudo ""; version = 0 } in
  let sites = Array.make first.(n_names) Dentry in
  for k = 0 to n_names - 1 do
    vars.(first.(k)) <- { name = names.(k); version = 0 }
  done;
  (* 4. renaming over the dominator tree, numbering it in preorder. *)
  let counters = Array.make n_names 0 and stacks = Array.make n_names [] in
  let top_id k = match stacks.(k) with v :: _ -> v | [] -> vars.(first.(k)) in
  let top name = top_id (id_of name) in
  let phi_names = Array.map Array.of_list needs_phi in
  let phi_dsts = Array.map (Array.map (fun k -> vars.(first.(k)))) phi_names in
  let phi_args = Array.map (fun ks -> Array.make (Array.length ks) []) phi_names in
  let pre = Array.make n (-1) and last = Array.make n (-1) in
  let clock = ref 0 in
  let blocks = Array.init n (fun _ -> { phis = []; body = [] }) in
  let rec rename id =
    pre.(id) <- !clock;
    incr clock;
    let pushed = ref [] in
    let fresh k =
      let c = counters.(k) + 1 in
      counters.(k) <- c;
      let v = { name = names.(k); version = c } in
      stacks.(k) <- v :: stacks.(k);
      pushed := k :: !pushed;
      vars.(first.(k) + c) <- v;
      v
    in
    let define k v site = sites.(first.(k) + v.version) <- site in
    Array.iteri
      (fun j k ->
        let dst = fresh k in
        phi_dsts.(id).(j) <- dst;
        (* the phi as it stands now, with the arguments of the
           predecessors renamed so far *)
        define k dst (Dphi (id, { dst; args = phi_args.(id).(j) })))
      phi_names.(id);
    let define_all ks defs instr =
      List.iter2 (fun k v -> define k v (Dinstr (id, instr))) ks defs;
      Some instr
    in
    let body =
      List.filter_map
        (fun (i : Tac.instr) ->
          match i with
          | Tac.Label _ -> None
          | Tac.Def { dst; rhs; origin } ->
            let rhs = rhs_of_tac top rhs in
            let k = id_of dst in
            let dst = fresh k in
            define_all [ k ] [ dst ] (Def { dst; rhs; origin })
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
            let k = id_of dst in
            let dst = fresh k in
            define_all [ k ] [ dst ] (Assert { dst; src; rel; bound; origin })
          | Tac.Call { target; origin } ->
            let ks = List.map id_of (Tac.defs ~extra_call_defs i) in
            let defs = List.map fresh ks in
            define_all ks defs (Call { target; defs; origin })
          | Tac.Effect { origin } ->
            let ks = List.map id_of (Tac.defs i) in
            let defs = List.map fresh ks in
            define_all ks defs (Effect { defs; origin })
          | Tac.Branch { origin; _ } | Tac.Jump { origin; _ } | Tac.Ret { origin }
            ->
            Some (Control { origin }))
        (Cfg.block cfg id).body
    in
    blocks.(id).body <- body;
    (* Fill each successor's phi arguments, in one pass over its phis. *)
    List.iter
      (fun s ->
        Array.iteri
          (fun j k -> phi_args.(s).(j) <- (id, top_id k) :: phi_args.(s).(j))
          phi_names.(s))
      (Cfg.block cfg id).succs;
    List.iter rename (Dominance.children dom id);
    last.(id) <- !clock - 1;
    List.iter (fun k -> stacks.(k) <- List.tl stacks.(k)) !pushed
  in
  rename cfg.entry;
  Array.iteri
    (fun id b ->
      b.phis <-
        Array.to_list
          (Array.mapi (fun j dst -> { dst; args = phi_args.(id).(j) }) phi_dsts.(id)))
    blocks;
  { cfg; dom; blocks; index = { regs; pseudos; first; vars; sites; pre; last } }

let block t id = t.blocks.(id)

(* --- well-formedness (used by the property tests) -------------------------- *)

let operand_vars = function
  | Ovar v -> [ v ]
  | Oimm _ | Olab _ -> []

let instr_uses = function
  | Def { rhs; _ } -> (
    match rhs with
    | Mov op -> operand_vars op
    | Bin (_, a, b) -> operand_vars a @ operand_vars b
    | Load { base; off; _ } -> operand_vars base @ operand_vars off
    | Callret -> [])
  | Store { base; off; src; _ } ->
    operand_vars base @ operand_vars off @ operand_vars src
  | Assert { src; bound; _ } -> src :: operand_vars bound
  | Call _ | Effect _ | Control _ -> []

let instr_defs = function
  | Def { dst; _ } -> [ dst ]
  | Assert { dst; _ } -> [ dst ]
  | Call { defs; _ } | Effect { defs; _ } -> defs
  | Store _ | Control _ -> []

let iter_instrs t f =
  Array.iteri
    (fun id b ->
      List.iter (fun p -> f id (`Phi p)) b.phis;
      List.iter (fun i -> f id (`Instr i)) b.body)
    t.blocks

let var_to_string v =
  let version = string_of_int v.version in
  match v.name with
  | Tac.Machine r -> String.concat "" [ Sparc.Reg.to_string r; "."; version ]
  | Tac.Pseudo s -> String.concat "" [ "$"; s; "."; version ]
