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
  let name =
    match v.name with
    | Tac.Machine r -> Sparc.Reg.to_string r
    | Tac.Pseudo s -> "$" ^ s
  in
  name ^ "." ^ string_of_int v.version
