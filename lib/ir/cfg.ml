exception Error of string

let errorf fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type block = {
  id : int;
  labels : string list;
  mutable body : Tac.instr list;  (* no Label instrs *)
  mutable succs : int list;
  mutable preds : int list;
}

type t = {
  blocks : block array;
  entry : int;
  by_label : (string, int) Hashtbl.t;
}

let block t id = t.blocks.(id)
let n_blocks t = Array.length t.blocks

let is_terminator = function
  | Tac.Branch _ | Tac.Jump _ | Tac.Ret _ -> true
  | Tac.Label _ | Tac.Def _ | Tac.Store _ | Tac.Assert _ | Tac.Call _
  | Tac.Effect _ ->
    false

let build (instrs : Tac.instr list) : t =
  (* Group the stream into (labels, body) runs. *)
  let groups = ref [] in
  let labels = ref [] in
  let body = ref [] in
  let flush () =
    if !labels <> [] || !body <> [] then begin
      groups := (List.rev !labels, List.rev !body) :: !groups;
      labels := [];
      body := []
    end
  in
  List.iter
    (fun instr ->
      match instr with
      | Tac.Label l ->
        if !body <> [] then flush ();
        labels := l :: !labels
      | _ ->
        body := instr :: !body;
        if is_terminator instr then flush ())
    instrs;
  flush ();
  let groups = Sparc.Arr.of_list (List.rev !groups) in
  let blocks =
    Sparc.Arr.mapi
      (fun id (labels, body) -> { id; labels; body; succs = []; preds = [] })
      groups
  in
  let by_label = Hashtbl.create 64 in
  Array.iter
    (fun b -> List.iter (fun l -> Hashtbl.replace by_label l b.id) b.labels)
    blocks;
  let resolve l =
    match Hashtbl.find_opt by_label l with
    | Some id -> id
    | None -> errorf "branch to label %s outside function" l
  in
  let n = Array.length blocks in
  Array.iteri
    (fun id b ->
      let last = match List.rev b.body with [] -> None | x :: _ -> Some x in
      let succs =
        match last with
        | Some (Tac.Jump { target; _ }) -> [ resolve target ]
        | Some (Tac.Branch { target; _ }) ->
          let fall = if id + 1 < n then [ id + 1 ] else [] in
          resolve target :: fall
        | Some (Tac.Ret _) -> []
        | Some (Tac.Label _ | Tac.Def _ | Tac.Store _ | Tac.Assert _
               | Tac.Call _ | Tac.Effect _)
        | None ->
          if id + 1 < n then [ id + 1 ] else []
      in
      b.succs <- succs)
    blocks;
  Array.iter
    (fun b -> List.iter (fun s -> blocks.(s).preds <- b.id :: blocks.(s).preds) b.succs)
    blocks;
  { blocks; entry = 0; by_label }

(* --- assert insertion ------------------------------------------------------ *)

let relops_for cond =
  (* Refinements valid when a branch on [cond] over compare (a, b) is
     taken: a list of (refine-first-operand?, relop).  Unsigned and
     overflow conditions yield nothing. *)
  match (cond : Sparc.Cond.t) with
  | Sparc.Cond.E -> [ (true, Tac.Req); (false, Tac.Req) ]
  | Sparc.Cond.L -> [ (true, Tac.Rlt); (false, Tac.Rgt) ]
  | Sparc.Cond.Le -> [ (true, Tac.Rle); (false, Tac.Rge) ]
  | Sparc.Cond.G -> [ (true, Tac.Rgt); (false, Tac.Rlt) ]
  | Sparc.Cond.Ge -> [ (true, Tac.Rge); (false, Tac.Rle) ]
  | Sparc.Cond.Ne | Sparc.Cond.A | Sparc.Cond.N | Sparc.Cond.Gu
  | Sparc.Cond.Leu | Sparc.Cond.Cc | Sparc.Cond.Cs | Sparc.Cond.Pos
  | Sparc.Cond.Neg | Sparc.Cond.Vc | Sparc.Cond.Vs ->
    []

(* Resolve an operand through the copy chain inside [body] (scanning
   backwards from the end): [%l0 := $i; ...; cmp %l0, _] refines the
   pseudo [$i], not the transient register — essential because loop
   bodies reload matched variables from their memory homes, so only a
   refinement on the pseudo name reaches the address computation. *)
let resolve_copy body op =
  let rev = List.rev body in
  let rec defs_of name = function
    | [] -> None
    | Tac.Def { dst; rhs; _ } :: rest when Tac.name_equal dst name -> Some (rhs, rest)
    | Tac.Assert { dst; src; _ } :: rest when Tac.name_equal dst name ->
      Some (Tac.Mov (Tac.Name src), rest)
    | Tac.Call _ :: rest | Tac.Effect _ :: rest -> (
      (* Conservatively stop at clobber points for machine registers. *)
      match name with
      | Tac.Machine _ -> None
      | Tac.Pseudo _ -> defs_of name rest)
    | _ :: rest -> defs_of name rest
  in
  let rec chase depth name instrs =
    if depth > 16 then Tac.Name name
    else
      match defs_of name instrs with
      | Some (Tac.Mov (Tac.Name n'), rest) -> chase (depth + 1) n' rest
      | Some (Tac.Mov ((Tac.Imm _ | Tac.Lab _) as v), _) -> v
      | Some ((Tac.Bin _ | Tac.Load _ | Tac.Callret), _) | None -> Tac.Name name
  in
  match op with
  | Tac.Name n -> chase 0 n rev
  | Tac.Imm _ | Tac.Lab _ -> op

let asserts_for ~origin cond (a, b) =
  relops_for cond
  |> List.filter_map (fun (first, rel) ->
         let src, bound = if first then (a, b) else (b, a) in
         match src with
         | Tac.Name n -> Some (Tac.Assert { dst = n; src = n; rel; bound; origin })
         | Tac.Imm _ | Tac.Lab _ -> None)

(* Split each conditional edge that carries compare information,
   inserting a block holding the corresponding assert definitions.
   New blocks are appended; ids of existing blocks are preserved. *)
let insert_asserts (t : t) : t =
  let extra = ref [] in
  let next_id = ref (Array.length t.blocks) in
  Array.iter
    (fun b ->
      match List.rev b.body with
      | Tac.Branch { cond; compare = Some (ca, cb); origin; target = _ } :: _ -> (
        let cmp = (resolve_copy b.body ca, resolve_copy b.body cb) in
        let taken, fall =
          match b.succs with
          | [ taken; fall ] -> (taken, Some fall)
          | [ taken ] -> (taken, None)
          | _ -> errorf "conditional block with %d successors" (List.length b.succs)
        in
        let split cond_for_edge succ =
          let asserts = asserts_for ~origin cond_for_edge cmp in
          if asserts = [] then None
          else begin
            let id = !next_id in
            incr next_id;
            let nb = { id; labels = []; body = asserts; succs = [ succ ]; preds = [ b.id ] } in
            extra := nb :: !extra;
            Some nb
          end
        in
        (match split cond taken with
        | Some nb ->
          b.succs <- List.map (fun s -> if s = taken then nb.id else s) b.succs;
          t.blocks.(taken).preds <-
            List.map (fun p -> if p = b.id then nb.id else p) t.blocks.(taken).preds
        | None -> ());
        match fall with
        | Some fall -> (
          match split (Sparc.Cond.negate cond) fall with
          | Some nb ->
            b.succs <- List.map (fun s -> if s = fall then nb.id else s) b.succs;
            t.blocks.(fall).preds <-
              List.map (fun p -> if p = b.id then nb.id else p) t.blocks.(fall).preds
          | None -> ())
        | None -> ())
      | _ -> ())
    t.blocks;
  let blocks = Array.append t.blocks (Array.of_list (List.rev !extra)) in
  { t with blocks }

let reverse_postorder (t : t) : int list =
  let visited = Array.make (n_blocks t) false in
  let order = ref [] in
  let rec dfs id =
    if not visited.(id) then begin
      visited.(id) <- true;
      List.iter dfs t.blocks.(id).succs;
      order := id :: !order
    end
  in
  dfs t.entry;
  !order

let reachable (t : t) : bool array =
  let seen = Array.make (n_blocks t) false in
  let rec dfs id =
    if not seen.(id) then begin
      seen.(id) <- true;
      List.iter dfs t.blocks.(id).succs
    end
  in
  dfs t.entry;
  seen

let pp ppf t =
  Array.iter
    (fun b ->
      Fmt.pf ppf "block %d%a (preds %a, succs %a):@\n" b.id
        Fmt.(list ~sep:nop (any " " ++ string))
        b.labels
        Fmt.(list ~sep:comma int)
        b.preds
        Fmt.(list ~sep:comma int)
        b.succs;
      List.iter (fun i -> Fmt.pf ppf "%a@\n" Tac.pp i) b.body)
    t.blocks
