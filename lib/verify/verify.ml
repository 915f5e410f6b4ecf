open Sparc

(* Translation validation of the check-elimination plan (the static
   mirror of PR 3's runtime conservation law): every check the
   optimizers eliminated is re-justified here from the pipeline's
   *outputs* alone — the retained per-function analysis inputs, the
   symbol table, the plan and the emitted program — never from the
   analyses' internal state.  One proof obligation per eliminated
   site plus whole-plan structural obligations; a [Refuted] verdict
   means the emitted program can miss a data breakpoint. *)

module I = Dbp.Instrument
module L = Dbp.Loopopt
module B = Ir.Bounds
module S = Ir.Ssa
module T = Ir.Tac
module SS = Set.Make (String)

type verdict = Proved | Refuted of string | Unknown of string

type obligation = {
  o_id : int;
  o_kind : string;
  o_origin : int option;
  o_loop : int option;
  o_pseudo : string option;
  o_detail : string;
  o_verdict : verdict;
}

type report = {
  v_schema : string;
  v_tags : (string * string) list;
  v_obligations : obligation list;
  v_proved : int;
  v_refuted : int;
  v_unknown : int;
}

let schema_version = "dbp-verify/1"

let mk ?origin ?loop ?pseudo kind detail verdict =
  { o_id = 0; o_kind = kind; o_origin = origin; o_loop = loop;
    o_pseudo = pseudo; o_detail = detail; o_verdict = verdict }

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* --- per-function pipeline rebuild ------------------------------------- *)

(* The IR pipeline is deterministic, so rebuilding it from the retained
   inputs yields block ids and SSA versions identical to the ones the
   plan's bound expressions mention — without trusting any value the
   optimizer computed. *)
type ctx = {
  fi : L.fn_input;
  raw : T.instr list;  (* re-lifted pre-symopt TAC, for §4.2 re-matching *)
  cfg : Ir.Cfg.t;
  dom : Ir.Dominance.t;
  loops : Ir.Loops.loop list;
  ssa : S.t;
}

let build_ctx (fi : L.fn_input) : (ctx, string) result =
  try
    let raw =
      Ir.Lift.lift_slice { Ir.Lift.fname = fi.L.fname; items = fi.L.items }
    in
    let cfg = Ir.Cfg.insert_asserts (Ir.Cfg.build fi.L.tac) in
    let dom = Ir.Dominance.compute cfg in
    let loops = Ir.Loops.find cfg dom in
    let ssa = S.construct ~extra_call_defs:fi.L.extra_call_defs cfg dom in
    Ok { fi; raw; cfg; dom; loops; ssa }
  with
  | Ir.Lift.Error m -> Error ("lift: " ^ m)
  | Ir.Cfg.Error m -> Error ("cfg: " ^ m)
  | e -> Error (Printexc.to_string e)

(* --- symbolic candidate engine ----------------------------------------- *)

(* For a variable used in a store address we derive candidate
   pre-header-evaluable expressions in four senses: [Exact] (equal on
   every iteration), [Lo]/[Hi] (bounds over every iteration) and
   [Entry] (the value attained on the first iteration — the refutation
   direction).  Derivation walks SSA def sites backwards and never
   consults the optimizer's bound environment. *)
type mode = Exact | Lo | Hi | Entry

let mode_idx = function Exact -> 0 | Lo -> 1 | Hi -> 2 | Entry -> 3

type cstate = {
  c : ctx;
  loop : Ir.Loops.loop;
  groups : B.group list;
  memo : B.bexpr list option array array;  (* by {!S.var_id}, per mode *)
  mutable cut : bool;  (* a cycle guard fired below: don't memoize *)
}

let cstate c (loop : Ir.Loops.loop) =
  { c; loop; groups = B.monotonic_groups c.ssa loop;
    memo = Array.make (S.n_vars c.ssa) [||]; cut = false }

let rec bdepth = function
  | B.Bconst _ | B.Blab _ | B.Bvar _ -> 1
  | B.Badd (a, b) | B.Bsub (a, b) -> 1 + max (bdepth a) (bdepth b)
  | B.Bmul (a, _) | B.Bshl (a, _) -> 1 + bdepth a

let cand_cap = 24

(* Every candidate list [var_cands] returns comes out of [tidy], so it
   is in normal form; [normalize] is idempotent, so [B.struct_equal] is
   exact semantic equality between candidates. *)
let tidy cands =
  let rec dedup acc = function
    | [] -> List.rev acc
    | e :: rest ->
      if List.exists (fun e' -> B.struct_equal e e') acc then dedup acc rest
      else dedup (e :: acc) rest
  in
  let kept =
    List.map B.normalize cands |> List.filter (fun e -> bdepth e <= 16)
  in
  let kept = dedup [] kept in
  List.filteri (fun i _ -> i < cand_cap) kept

(* Invariant for our purposes = defined outside the loop *and* being
   the version live at the header's entry, i.e. evaluable in the
   pre-header — the same test {!Ir.Bounds.evaluable} encodes, applied
   independently per variable. *)
let invariant_var st (v : S.var) =
  (match S.def_site st.c.ssa v with
  | Some (S.Dphi (b, _)) | Some (S.Dinstr (b, _)) ->
    not (Ir.Loops.in_loop st.loop b)
  | Some S.Dentry | None -> true)
  && S.var_equal (S.live_in_var st.c.ssa st.loop.Ir.Loops.header v.S.name) v

let alu_word (op : Insn.alu) x y =
  match op with
  | Insn.Add -> Some (Word.add x y)
  | Insn.Sub -> Some (Word.sub x y)
  | Insn.And -> Some (Word.logand x y)
  | Insn.Or -> Some (Word.logor x y)
  | Insn.Xor -> Some (Word.logxor x y)
  | Insn.Andn -> Some (Word.logand x (Word.lognot y))
  | Insn.Orn -> Some (Word.logor x (Word.lognot y))
  | Insn.Xnor -> Some (Word.lognot (Word.logxor x y))
  | Insn.Sll -> Some (Word.sll x y)
  | Insn.Srl -> Some (Word.srl x y)
  | Insn.Sra -> Some (Word.sra x y)
  | Insn.Smul -> Some (Word.mul x y)
  | Insn.Umul -> Some (Word.umul x y)
  | Insn.Sdiv -> if y = 0 then None else Some (Word.sdiv x y)
  | Insn.Udiv -> if y = 0 then None else Some (Word.udiv x y)

let rec var_cands st visiting mode (v : S.var) : B.bexpr list =
  let slot =
    let i = S.var_id st.c.ssa v in
    if Array.length st.memo.(i) = 0 then st.memo.(i) <- Array.make 4 None;
    st.memo.(i)
  in
  match slot.(mode_idx mode) with
  | Some cs -> cs
  | None ->
    if
      List.exists
        (fun (m, v') -> m = mode_idx mode && S.var_equal v v')
        visiting
    then begin
      st.cut <- true;
      []
    end
    else begin
      let visiting = (mode_idx mode, v) :: visiting in
      let saved = st.cut in
      st.cut <- false;
      let base = if invariant_var st v then [ B.Bvar v ] else [] in
      let extra =
        (* an exact candidate is also a bound and the entry value *)
        if mode = Exact then [] else var_cands st visiting Exact v
      in
      let cs = tidy (base @ extra @ derive st visiting mode v) in
      if not st.cut then slot.(mode_idx mode) <- Some cs;
      st.cut <- saved || st.cut;
      cs
    end

and derive st visiting mode v =
  match S.def_site st.c.ssa v with
  | None | Some S.Dentry -> []
  | Some (S.Dphi (b, phi)) ->
    (* [def_site] keeps the phi as it stood when [b] was renamed, before
       a loop's latches added their arguments: read the final one. *)
    let final (p : S.phi) = S.var_equal p.S.dst phi.S.dst in
    phi_cands st visiting mode b (List.find final (S.block st.c.ssa b).S.phis)
  | Some (S.Dinstr (_, ins)) -> instr_cands st visiting mode v ins

and phi_cands st visiting mode b (phi : S.phi) =
  let loop = st.loop in
  let header_phi = b = loop.Ir.Loops.header in
  let outside_args =
    List.filter (fun (p, _) -> not (Ir.Loops.in_loop loop p)) phi.S.args
  in
  let mono =
    (* §4.3's monotonic groups: an increasing induction variable is
       bounded below (and first takes the value of) its loop-entry
       version; dually for decreasing. *)
    if not header_phi then []
    else
      List.concat_map
        (fun (g : B.group) ->
          if S.var_equal g.B.phi_var phi.S.dst then
            match (mode, g.B.direction) with
            | Lo, B.Increasing | Hi, B.Decreasing | Entry, _ ->
              var_cands st visiting Exact g.B.init
            | _ -> []
          else [])
        st.groups
  in
  let entry_c =
    if mode = Entry && header_phi then
      match outside_args with
      | [] -> []
      | (_, v0) :: rest ->
        List.filter
          (fun e ->
            List.for_all
              (fun (_, a) ->
                List.exists
                  (fun e' -> B.struct_equal e e')
                  (var_cands st visiting Exact a))
              rest)
          (var_cands st visiting Exact v0)
    else []
  in
  let common =
    (* a candidate every incoming argument shares *)
    match phi.S.args with
    | [] -> []
    | (_, a0) :: rest ->
      List.filter
        (fun e ->
          List.for_all
            (fun (_, a) ->
              List.exists
                (fun e' -> B.struct_equal e e')
                (var_cands st visiting mode a))
            rest)
        (var_cands st visiting mode a0)
  in
  mono @ entry_c @ common

and instr_cands st visiting mode v ins =
  match ins with
  | S.Def { dst; rhs; _ } when S.var_equal dst v -> (
    match rhs with
    | S.Mov op -> op_cands st visiting mode op
    | S.Bin (op, a, b) -> bin_cands st visiting mode op a b
    | S.Load _ | S.Callret -> [])
  | S.Assert { dst; src; rel; bound; _ } when S.var_equal dst v ->
    let pass = var_cands st visiting mode src in
    let refine =
      let bexact = op_cands st visiting Exact bound in
      let plus k =
        List.map (fun e -> B.normalize (B.Badd (e, B.Bconst k))) bexact
      in
      match (mode, rel) with
      | Hi, T.Rle -> bexact
      | Hi, T.Rlt -> plus (-1)
      | Lo, T.Rge -> bexact
      | Lo, T.Rgt -> plus 1
      | _, T.Req -> bexact
      | _, _ -> []
    in
    pass @ refine
  | _ -> []

and op_cands st visiting mode (op : S.operand) =
  match op with
  | S.Oimm k -> [ B.Bconst (Word.norm k) ]
  | S.Olab (l, o) -> [ B.Blab (l, o) ]
  | S.Ovar v -> var_cands st visiting mode v

and bin_cands st visiting mode op a b =
  let cross f xs ys =
    List.concat_map (fun x -> List.map (fun y -> f x y) ys) xs
  in
  let cands m o = op_cands st visiting m o in
  let consts o =
    List.filter_map
      (fun e -> match B.normalize e with B.Bconst c -> Some c | _ -> None)
      (cands Exact o)
  in
  let both_const () =
    cross (fun x y -> alu_word op x y) (consts a) (consts b)
    |> List.filter_map (fun r -> Option.map (fun c -> B.Bconst c) r)
  in
  match op with
  | Insn.Add -> cross (fun x y -> B.Badd (x, y)) (cands mode a) (cands mode b)
  | Insn.Sub ->
    let ma, mb =
      match mode with
      | Exact -> (Exact, Exact)
      | Entry -> (Entry, Entry)
      | Lo -> (Lo, Hi)
      | Hi -> (Hi, Lo)
    in
    cross (fun x y -> B.Bsub (x, y)) (cands ma a) (cands mb b)
  | Insn.Smul | Insn.Umul ->
    (* only constant scaling is linear; sign flips the bound sense *)
    let scale co other =
      let src =
        match mode with
        | Exact -> Exact
        | Entry -> Entry
        | Lo -> if co >= 0 then Lo else Hi
        | Hi -> if co >= 0 then Hi else Lo
      in
      List.map (fun e -> B.Bmul (e, co)) (cands src other)
    in
    both_const ()
    @ List.concat_map (fun c -> scale c a) (consts b)
    @ List.concat_map (fun c -> scale c b) (consts a)
  | Insn.Sll ->
    let shifts = List.filter (fun c -> c >= 0 && c <= 30) (consts b) in
    both_const ()
    @ List.concat_map
        (fun c -> List.map (fun e -> B.Bshl (e, c)) (cands mode a))
        shifts
  | Insn.And -> (
    (* masking with a non-negative constant pins the result to [0, c] *)
    match mode with
    | Lo ->
      both_const ()
      @ (if List.exists (fun c -> c >= 0) (consts b) then [ B.Bconst 0 ] else [])
    | Hi ->
      both_const ()
      @ List.filter_map
          (fun c -> if c >= 0 then Some (B.Bconst c) else None)
          (consts b)
    | Exact | Entry -> both_const ())
  | _ -> both_const ()

(* --- decision procedures ------------------------------------------------ *)

(* Two linear combinations differ by a constant iff their difference
   normalizes to one — the workhorse comparison of every proof. *)
let const_diff a b =
  match B.normalize (B.Bsub (a, b)) with B.Bconst d -> Some d | _ -> None

(* Grounding fallback: chase invariant definition chains down to
   literal constants, for addresses built by materializing immediates. *)
let rec ground_var st depth (v : S.var) : int option =
  if depth <= 0 then None
  else
    match S.def_site st.c.ssa v with
    | Some (S.Dinstr (_, S.Def { dst; rhs; _ })) when S.var_equal dst v -> (
      match rhs with
      | S.Mov op -> ground_op st depth op
      | S.Bin (op, a, b) -> (
        match (ground_op st (depth - 1) a, ground_op st (depth - 1) b) with
        | Some x, Some y -> alu_word op x y
        | _ -> None)
      | S.Load _ | S.Callret -> None)
    | Some (S.Dinstr (_, S.Assert { dst; src; _ })) when S.var_equal dst v ->
      ground_var st (depth - 1) src
    | _ -> None

and ground_op st depth = function
  | S.Oimm k -> Some (Word.norm k)
  | S.Olab _ -> None
  | S.Ovar v -> ground_var st (depth - 1) v

let rec ground_expr st depth (e : B.bexpr) : int option =
  let two f x y =
    match (ground_expr st depth x, ground_expr st depth y) with
    | Some a, Some b -> Some (f a b)
    | _ -> None
  in
  match e with
  | B.Bconst c -> Some (Word.norm c)
  | B.Blab _ -> None
  | B.Bvar v -> ground_var st depth v
  | B.Badd (x, y) -> two Word.add x y
  | B.Bsub (x, y) -> two Word.sub x y
  | B.Bmul (x, c) -> Option.map (fun a -> Word.mul a c) (ground_expr st depth x)
  | B.Bshl (x, c) -> Option.map (fun a -> Word.sll a c) (ground_expr st depth x)

(* [geq a b]: [Some true] when a >= b provably, [Some false] when a < b
   provably, [None] otherwise. *)
let geq st a b =
  match const_diff a b with
  | Some d -> Some (d >= 0)
  | None -> (
    match (ground_expr st 16 a, ground_expr st 16 b) with
    | Some x, Some y -> Some (x >= y)
    | _ -> None)

type motion = Fixed | Moves | Unclear

(* How an operand's value changes from one iteration to the next:
   [Fixed] when the loop never changes it, [Moves] when it differs on
   every iteration — one of the loop's induction variables (a header phi
   of a monotonic group, which adds a nonzero constant each iteration),
   plus or minus a [Fixed] value, or scaled by a nonzero constant.
   Scaling assumes the step times the scale is not a multiple of 2^32,
   which no realistic array walk reaches. *)
let rec motion st depth (op : S.operand) =
  match op with
  | S.Oimm _ | S.Olab _ -> Fixed
  | S.Ovar v when invariant_var st v -> Fixed
  | S.Ovar v when List.exists (fun (g : B.group) -> S.var_equal g.B.phi_var v) st.groups ->
    Moves
  | S.Ovar v when depth > 0 -> (
    let m = motion st (depth - 1) in
    match S.def_site st.c.ssa v with
    | Some (S.Dinstr (_, S.Def { rhs = S.Mov a; _ })) -> m a
    | Some (S.Dinstr (_, S.Def { rhs = S.Bin (alu, a, b); _ })) -> (
      match (alu, m a, m b, b) with
      | _, Fixed, Fixed, _ -> Fixed
      | (Insn.Add | Insn.Sub), Moves, Fixed, _ | (Insn.Add | Insn.Sub), Fixed, Moves, _ ->
        Moves
      | Insn.Sll, Moves, _, S.Oimm k when k land 31 = k -> Moves
      | (Insn.Smul | Insn.Umul), Moves, _, S.Oimm k when Word.norm k <> 0 -> Moves
      | _ -> Unclear)
    | Some (S.Dinstr (_, S.Assert { src; rel; _ })) when rel <> T.Req -> m (S.Ovar src)
    | _ -> Unclear)
  | S.Ovar _ -> Unclear

(* A store in block [b] that runs on every iteration reaching a back
   edge, at an address that moves, writes a different word each time. *)
let moves_every_iteration st b base off =
  List.for_all (Ir.Dominance.dominates st.c.dom b) st.loop.Ir.Loops.back_edges
  &&
  match (motion st 16 base, motion st 16 off) with
  | Moves, Fixed | Fixed, Moves -> true
  | _ -> false

let find_store st origin =
  List.find_map
    (fun b ->
      List.find_map
        (fun ins ->
          match ins with
          | S.Store { base; off; width; origin = o; _ } when o = origin ->
            Some (b, base, off, width)
          | _ -> None)
        (S.block st.c.ssa b).S.body)
    st.loop.Ir.Loops.body

let addr_cands st mode base off =
  List.concat_map
    (fun x ->
      List.map (fun y -> B.Badd (x, y)) (op_cands st [] mode off))
    (op_cands st [] mode base)
  |> tidy

let ground_addr st base off =
  match (ground_op st 16 base, ground_op st 16 off) with
  | Some x, Some y -> Some (Word.add x y)
  | _ -> None

(* --- per-check obligations (§4.3) -------------------------------------- *)

let check_origin = function
  | L.Inv { origin; _ } | L.Rng { origin; _ } -> origin

let verify_check st (p : L.loop_plan) (chk : L.check) : obligation =
  let detail = L.check_to_string chk in
  let origin = check_origin chk in
  let verdict =
    match find_store st origin with
    | None ->
      Refuted
        (Printf.sprintf "no store at origin %d inside loop %d" origin
           p.L.loop_id)
    | Some (b, base, off, w) -> (
      match chk with
      | L.Inv { expr; width; _ } ->
        if w <> width then Refuted "check width differs from the store's width"
        else if not (List.for_all (invariant_var st) (B.bexpr_vars expr)) then
          Refuted "check expression is not evaluable at the pre-header"
        else begin
          let exact = addr_cands st Exact base off in
          if List.exists (fun a -> const_diff a expr = Some 0) exact then
            Proved
          else
            match
              List.find_map
                (fun a ->
                  match const_diff a expr with
                  | Some d when d <> 0 -> Some d
                  | _ -> None)
                exact
            with
            | Some d ->
              Refuted
                (Printf.sprintf
                   "store address differs from the checked expression by %d" d)
            | None -> (
              match (ground_addr st base off, ground_expr st 16 expr) with
              | Some x, Some y when x = y -> Proved
              | Some x, Some y ->
                Refuted
                  (Printf.sprintf "store address %d but the check covers %d" x y)
              | _ when moves_every_iteration st b base off ->
                Refuted
                  "store address moves with an induction variable: one \
                   invariant check covers only one iteration"
              | _ -> Unknown "could not derive the store address symbolically")
        end
      | L.Rng { lo; hi; width; _ } ->
        if w <> width then Refuted "check width differs from the store's width"
        else if
          not
            (List.for_all (invariant_var st)
               (B.bexpr_vars lo @ B.bexpr_vars hi))
        then Refuted "range bounds are not evaluable at the pre-header"
        else begin
          let empty =
            match const_diff hi lo with
            | Some d -> d < 0
            | None -> (
              match (ground_expr st 16 hi, ground_expr st 16 lo) with
              | Some h, Some l -> h < l
              | _ -> false)
          in
          if empty then
            Refuted "claimed range is empty (hi < lo): overflow or bound swap"
          else begin
            let lo_c = addr_cands st Lo base off in
            let hi_c = addr_cands st Hi base off in
            let ent_c = addr_cands st Entry base off in
            let lo_ok = List.exists (fun c -> geq st c lo = Some true) lo_c in
            let hi_ok = List.exists (fun c -> geq st hi c = Some true) hi_c in
            (* first-iteration refutation: the entry address is attained,
               so it must already lie inside the claimed range *)
            if List.exists (fun e -> geq st e lo = Some false) ent_c then
              Refuted
                "first-iteration store address falls below the claimed lower \
                 bound"
            else if List.exists (fun e -> geq st hi e = Some false) ent_c then
              Refuted
                "first-iteration store address exceeds the claimed upper bound"
            else if lo_ok && hi_ok then Proved
            else if (not lo_ok) && not hi_ok then
              Unknown "could not bound the store address on either side"
            else if not lo_ok then
              Unknown "could not prove the claimed lower bound covers the sweep"
            else
              Unknown "could not prove the claimed upper bound covers the sweep"
          end
        end)
  in
  mk ~origin ~loop:p.L.loop_id
    (match chk with L.Inv _ -> "inv" | L.Rng _ -> "rng")
    detail verdict

(* --- whole-plan obligations --------------------------------------------- *)

(* Re-derivation of Loopopt's entry condition: pre-header code inserted
   before the header label runs exactly on entry only when every
   outside predecessor falls through into the header. *)
let fallthrough_entry (cfg : Ir.Cfg.t) (loop : Ir.Loops.loop) =
  let header = Ir.Cfg.block cfg loop.header in
  header.Ir.Cfg.labels <> []
  && List.for_all
       (fun p ->
         p = loop.header - 1
         &&
         match List.rev (Ir.Cfg.block cfg p).Ir.Cfg.body with
         | (T.Jump _ | T.Ret _) :: _ -> false
         | T.Branch { target; _ } :: _ ->
           not (List.mem target header.Ir.Cfg.labels)
         | _ -> true)
       loop.outside_preds

let loop_for_plan (c : ctx) (p : L.loop_plan) : (Ir.Loops.loop, string) result
    =
  match List.assoc_opt p.L.header_item c.fi.L.items with
  | None ->
    Error
      (Printf.sprintf "plan header item %d lies outside the function slice"
         p.L.header_item)
  | Some (Asm.Label l) -> (
    match Hashtbl.find_opt c.cfg.Ir.Cfg.by_label l with
    | None -> Error (Printf.sprintf "label %s is not in the CFG" l)
    | Some b -> (
      let covers (lp : Ir.Loops.loop) o =
        List.exists
          (fun blk ->
            List.exists
              (fun ins ->
                match ins with
                | S.Store { origin; _ } -> origin = o
                | _ -> false)
              (S.block c.ssa blk).S.body)
          lp.body
      in
      match
        List.filter (fun (lp : Ir.Loops.loop) -> lp.header = b) c.loops
      with
      | [] ->
        Error
          (Printf.sprintf "item %d (label %s) is not a loop header"
             p.L.header_item l)
      | [ lp ] -> Ok lp
      | lps -> (
        match
          List.find_opt
            (fun lp -> List.for_all (covers lp) p.L.eliminated)
            lps
        with
        | Some lp -> Ok lp
        | None -> Error "no loop at this header contains every covered store")))
  | Some _ ->
    Error (Printf.sprintf "plan header item %d is not a label" p.L.header_item)

(* The guarded loop-entry trap the MRS arms at runtime must sit
   immediately before the header label so back edges skip it. *)
let has_entry_trap text_arr label loop_id =
  let n = Array.length text_arr in
  let rec find i =
    if i >= n then None
    else
      match text_arr.(i) with
      | Asm.Label l when l = label -> Some i
      | _ -> find (i + 1)
  in
  match find 0 with
  | None -> Error "header label is missing from the emitted program"
  | Some li ->
    let benign = function
      | Asm.Insn
          (Insn.Alu _ | Insn.Sethi _ | Insn.Branch _ | Insn.Trap _ | Insn.Nop)
        ->
        true
      | Asm.Label _ | Asm.Comment _ -> true
      | _ -> false
    in
    let start =
      let rec back i k =
        if i < 0 || k = 0 || not (benign text_arr.(i)) then i + 1
        else back (i - 1) (k - 1)
      in
      back (li - 1) 64
    in
    let rec seek i =
      if i >= li - 1 then false
      else
        match (text_arr.(i), text_arr.(i + 1)) with
        | ( Asm.Insn
              (Insn.Alu
                 { op = Insn.Or; cc = false; rs1; op2 = Insn.Imm k; rd }),
            Asm.Insn (Insn.Trap { number }) )
          when Reg.equal rs1 Reg.g0
               && Reg.equal rd (Reg.g 5)
               && k = loop_id
               && number = Dbp.Traps.loop_entry ->
          true
        | _ -> seek (i + 1)
    in
    if seek start then Ok ()
    else Error "no loop-entry trap sequence precedes the header label"

let verify_preheader text_arr (c : ctx) (lp : Ir.Loops.loop)
    (p : L.loop_plan) =
  let verdict =
    if not (fallthrough_entry c.cfg lp) then
      Refuted "a loop entry does not fall through the pre-header insertion point"
    else
      match (Ir.Cfg.block c.cfg lp.header).Ir.Cfg.labels with
      | [] -> Refuted "loop header has no label"
      | header_label :: _ -> (
        match has_entry_trap text_arr header_label p.L.loop_id with
        | Ok () -> Proved
        | Error m -> Refuted m)
  in
  mk ~loop:p.L.loop_id "preheader"
    (Printf.sprintf "%s: guarded entry trap %d before header item %d"
       p.L.fname p.L.loop_id p.L.header_item)
    verdict

let verify_plan_coverage (inst : I.t) (p : L.loop_plan) =
  let chk_origins =
    List.sort_uniq compare (List.map check_origin p.L.checks)
  in
  let elim = List.sort_uniq compare p.L.eliminated in
  let verdict =
    if chk_origins <> elim then
      Refuted
        (Printf.sprintf
           "pre-header checks cover origins [%s] but the plan eliminates [%s]"
           (String.concat ", " (List.map string_of_int chk_origins))
           (String.concat ", " (List.map string_of_int elim)))
    else
      match
        List.find_opt
          (fun o ->
            not
              (List.exists
                 (fun (s : I.site) ->
                   s.I.origin = o && s.I.status = I.Loop_eliminated p.L.loop_id)
                 inst.I.sites))
          elim
      with
      | Some o ->
        Refuted
          (Printf.sprintf
             "origin %d is in the plan but its site is not marked \
              loop-eliminated by loop %d"
             o p.L.loop_id)
      | None -> Proved
  in
  mk ~loop:p.L.loop_id "coverage"
    (Printf.sprintf "%d eliminated site(s), %d pre-header check(s)"
       (List.length p.L.eliminated)
       (List.length p.L.checks))
    verdict

let verify_dominance st (p : L.loop_plan) =
  let bad =
    List.filter_map
      (fun o ->
        match find_store st o with
        | None ->
          Some (Printf.sprintf "origin %d: store not found in the loop body" o)
        | Some (b, _, _, _) ->
          if Ir.Dominance.dominates st.c.dom st.loop.Ir.Loops.header b then
            None
          else
            Some
              (Printf.sprintf "origin %d: block %d is not dominated by header %d"
                 o b st.loop.Ir.Loops.header))
      p.L.eliminated
  in
  mk ~loop:p.L.loop_id "dominance"
    (Printf.sprintf "header %d covers %d store(s)" st.loop.Ir.Loops.header
       (List.length p.L.eliminated))
    (match bad with [] -> Proved | m :: _ -> Refuted m)

let pseudo_resolvable symtab q =
  match String.index_opt q '.' with
  | Some i when i > 0 ->
    let fname = String.sub q 0 i in
    let name = String.sub q (i + 1) (String.length q - i - 1) in
    Symtab.lookup symtab ~func:fname name <> None
  | _ -> Symtab.lookup symtab q <> None

let verify_alias (inst : I.t) (c : ctx) (lp : Ir.Loops.loop)
    (p : L.loop_plan) =
  let used =
    List.sort_uniq compare
      (List.concat_map
         (function
           | L.Inv { expr; _ } -> L.pseudos_of_bexpr expr
           | L.Rng { lo; hi; _ } ->
             L.pseudos_of_bexpr lo @ L.pseudos_of_bexpr hi)
         p.L.checks)
  in
  let missing =
    List.filter (fun q -> not (List.mem q p.L.alias_pseudos)) used
  in
  let unresolved =
    List.filter
      (fun q -> not (pseudo_resolvable inst.I.symtab q))
      p.L.alias_pseudos
  in
  let contains_ret =
    List.exists
      (fun b ->
        List.exists
          (function T.Ret _ -> true | _ -> false)
          (Ir.Cfg.block c.cfg b).Ir.Cfg.body)
      lp.body
  in
  let verdict =
    if missing <> [] then
      Refuted
        ("pre-header checks read pseudo home(s) not listed as alias \
          obligations: "
        ^ String.concat ", " missing)
    else if unresolved <> [] then
      Refuted
        ("alias pseudo(s) have no symbol-table home: "
        ^ String.concat ", " unresolved)
    else if contains_ret <> p.L.contains_ret then
      Refuted "plan misrecords whether the loop contains a return"
    else if
      inst.I.options.I.check_aliases && contains_ret
      && p.L.alias_pseudos <> []
    then
      Refuted
        "alias-checked run kept a loop whose exits cannot be tracked (return \
         inside the loop)"
    else Proved
  in
  mk ~loop:p.L.loop_id "alias"
    (Printf.sprintf "alias pseudos: [%s]"
       (String.concat ", " p.L.alias_pseudos))
    verdict

(* Where an exit edge lands, re-derived here: the first instruction it
   runs outside the loop, past an assert block on the edge (no label,
   no code) or a label-only block (falls through). *)
let rec exit_point (cfg : Ir.Cfg.t) b =
  let blk = Ir.Cfg.block cfg b in
  match (blk.Ir.Cfg.body, blk.Ir.Cfg.succs) with
  | (T.Assert _ :: _ | []), [ s ] -> exit_point cfg s
  | i :: _, _ -> T.origin i
  | [], _ -> None

(* Does the exit label of item [origin] start a run of guarded trap
   sequences that includes a loop-exit trap for [loop_id]?  The run may
   hold other loops' exit traps but no code of the program's own. *)
let has_exit_trap text_arr origin loop_id =
  let n = Array.length text_arr in
  let label = I.exit_label origin in
  let g5 = Reg.g 5 in
  let rec scan i =
    i < n
    &&
    match text_arr.(i) with
    | Asm.Insn (Insn.Alu { op = Insn.Or; cc = false; rs1; op2 = Insn.Imm k; rd })
      when Reg.equal rs1 Reg.g0 && Reg.equal rd g5 && k = loop_id
           && i + 1 < n
           && text_arr.(i + 1)
              = Asm.Insn (Insn.Trap { number = Dbp.Traps.loop_exit }) ->
      true
    | Asm.Insn (Insn.Alu { op = Insn.Or; cc = true; rs1; op2 = Insn.Reg r; rd })
      when Reg.equal rs1 Reg.g0 && Reg.equal r (Reg.g 6) && Reg.equal rd Reg.g0 ->
      scan (i + 1)
    | Asm.Insn (Insn.Alu { rd; _ } | Insn.Sethi { rd; _ }) when Reg.equal rd g5 ->
      scan (i + 1)
    | Asm.Insn (Insn.Branch { cond = Cond.Ne; target = Insn.Sym l })
    | Asm.Label l
      when starts_with ".Ldbp_ltrap" l ->
      scan (i + 1)
    | Asm.Insn (Insn.Trap { number }) when number = Dbp.Traps.loop_exit -> scan (i + 1)
    | Asm.Comment _ -> scan (i + 1)
    | _ -> false
  in
  let rec find i =
    i < n && (text_arr.(i) = Asm.Label label && scan (i + 1) || find (i + 1))
  in
  find 0

(* Exit coverage: on an alias-checked loop, every exit edge must pass a
   loop-exit trap for the loop, or the alias regions its pre-header
   created outlive it. *)
let verify_exits text_arr (inst : I.t) (c : ctx) (lp : Ir.Loops.loop)
    (p : L.loop_plan) =
  if not (inst.I.options.I.check_aliases && p.L.alias_pseudos <> []) then []
  else begin
    let edges =
      List.concat_map
        (fun b ->
          List.filter_map
            (fun s -> if Ir.Loops.in_loop lp s then None else Some (b, s))
            (Ir.Cfg.block c.cfg b).Ir.Cfg.succs)
        lp.Ir.Loops.body
    in
    let uncovered =
      List.filter
        (fun (_, s) ->
          match exit_point c.cfg s with
          | Some origin -> not (has_exit_trap text_arr origin p.L.loop_id)
          | None -> true)
        edges
    in
    [
      mk ~loop:p.L.loop_id "exit"
        (Printf.sprintf "%s: %d exit edge(s), loop-exit trap %d" p.L.fname
           (List.length edges) p.L.loop_id)
        (match uncovered with
        | [] -> Proved
        | (b, s) :: _ ->
          Refuted
            (Printf.sprintf "exit edge %d -> %d passes no loop-exit trap" b s));
    ]
  end

(* --- §4.2 re-matching (sym obligations) --------------------------------- *)

(* Independent mirror of the published matching rules, run over the raw
   re-lifted TAC: a matched home must be a one-word scalar/pointer that
   is provably unaliasable — a local whose address is never taken or a
   global whose address never escapes. *)

let escaped_globals_raw (fns : T.instr list list) : SS.t =
  let escaped = ref SS.empty in
  let escape l = escaped := SS.add l !escaped in
  let scan instrs =
    let holds : (Reg.t, string) Hashtbl.t = Hashtbl.create 8 in
    let label_of = function
      | T.Name (T.Machine r) -> Hashtbl.find_opt holds r
      | T.Name (T.Pseudo _) | T.Imm _ -> None
      | T.Lab (l, _) -> Some l
    in
    let escape_op op = Option.iter escape (label_of op) in
    List.iter
      (fun ins ->
        match ins with
        | T.Label _ | T.Branch _ | T.Jump _ | T.Ret _ -> Hashtbl.reset holds
        | T.Call _ ->
          List.iter
            (fun k ->
              match Hashtbl.find_opt holds (Reg.o k) with
              | Some l -> escape l
              | None -> ())
            [ 0; 1; 2; 3; 4; 5 ];
          Hashtbl.reset holds
        | T.Effect _ ->
          (match Hashtbl.find_opt holds (Reg.o 0) with
          | Some l -> escape l
          | None -> ());
          Hashtbl.reset holds
        | T.Assert { dst = T.Machine r; _ } -> Hashtbl.remove holds r
        | T.Assert _ -> ()
        | T.Store { off; src; _ } ->
          escape_op src;
          escape_op off;
          List.iter (fun k -> Hashtbl.remove holds (Reg.o k)) [ 3; 4; 5 ]
        | T.Def { dst; rhs; _ } -> (
          (match dst with
          | T.Machine r -> Hashtbl.remove holds r
          | T.Pseudo _ -> ());
          match (rhs, dst) with
          | T.Mov (T.Lab (l, _)), T.Machine r -> Hashtbl.replace holds r l
          | T.Mov (T.Name (T.Machine s)), T.Machine r -> (
            match Hashtbl.find_opt holds s with
            | Some l -> Hashtbl.replace holds r l
            | None -> ())
          | T.Mov _, _ -> ()
          | T.Bin (Insn.Add, a, T.Imm _), T.Machine r -> (
            match label_of a with
            | Some l -> Hashtbl.replace holds r l
            | None -> ())
          | T.Bin (_, a, b), _ ->
            escape_op a;
            escape_op b
          | T.Load { off; _ }, _ ->
            escape_op off;
            List.iter (fun k -> Hashtbl.remove holds (Reg.o k)) [ 3; 4; 5 ]
          | T.Callret, _ -> ()))
      instrs
  in
  List.iter scan fns;
  !escaped

let addr_taken_raw instrs =
  List.filter_map
    (function
      | T.Def
          { rhs = T.Bin (Insn.Add, T.Name (T.Machine r), T.Imm c); _ }
        when Reg.equal r Reg.fp ->
        Some c
      | _ -> None)
    instrs

type home = Hlocal of int | Hglobal of string * int | Hnone

(* Walk the raw TAC once with the same register-holds discipline the
   §4.2 matcher used, classifying the address of every store by its
   origin; the first store at an origin wins. *)
let store_homes (instrs : T.instr list) : (int, home * Insn.width) Hashtbl.t =
  let homes = Hashtbl.create 64 in
  let holds : (Reg.t, string * int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun ins ->
      match ins with
      | T.Store { base; off; width; origin; _ } ->
        if not (Hashtbl.mem homes origin) then begin
          let h =
            match (base, off) with
            | T.Name (T.Machine r), T.Imm c when Reg.equal r Reg.fp -> Hlocal c
            | T.Name (T.Machine r), T.Imm c -> (
              match Hashtbl.find_opt holds r with
              | Some (l, b) -> Hglobal (l, b + c)
              | None -> Hnone)
            | T.Lab (l, b), T.Imm c -> Hglobal (l, b + c)
            | _ -> Hnone
          in
          Hashtbl.add homes origin (h, width)
        end
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
      | T.Assert _ -> ())
    instrs;
  homes

let scalar_or_pointer (e : Symtab.entry) =
  match e.Symtab.ctype with
  | Symtab.Scalar | Symtab.Pointer -> true
  | Symtab.Array _ | Symtab.Struct _ -> false

let verify_sym_site symtab ~fname ~addr_taken ~escaped ~premonitored ~home
    (s : I.site) claimed : obligation =
  let local_verdict off (e : Symtab.entry) =
    let covers o =
      match e.Symtab.location with
      | Symtab.Fp_offset base -> o >= base && o < base + Symtab.size_bytes e
      | Symtab.Absolute _ | Symtab.Data_label _ -> false
    in
    if e.Symtab.size_words <> 1 then
      Refuted
        (Printf.sprintf "symbol %s is %d words; only one-word homes match"
           e.Symtab.name e.Symtab.size_words)
    else if not (scalar_or_pointer e) then
      Refuted
        (Printf.sprintf "symbol %s is not a scalar or pointer" e.Symtab.name)
    else if
      not (match e.Symtab.location with Symtab.Fp_offset b -> b = off | _ -> false)
    then
      Refuted
        (Printf.sprintf "store targets the interior of %s, not its base"
           e.Symtab.name)
    else if List.exists covers addr_taken then
      Refuted
        (Printf.sprintf "the address of %s is taken; its home is aliasable"
           e.Symtab.name)
    else
      let derived = fname ^ "." ^ e.Symtab.name in
      if derived <> claimed then
        Refuted
          (Printf.sprintf "address re-matches %s but the plan claims %s"
             derived claimed)
      else Proved
  in
  let global_verdict l off =
    match Symtab.lookup symtab l with
    | None -> Refuted (Printf.sprintf "no global symbol-table entry for %s" l)
    | Some e ->
      if e.Symtab.func <> None then
        Refuted (Printf.sprintf "%s resolves to a local, not a global" l)
      else if off <> 0 then
        Refuted
          (Printf.sprintf "store targets %s%+d, not the variable's base" l off)
      else if e.Symtab.size_words <> 1 then
        Refuted
          (Printf.sprintf "global %s is %d words; only one-word homes match" l
             e.Symtab.size_words)
      else if not (scalar_or_pointer e) then
        Refuted (Printf.sprintf "global %s is not a scalar or pointer" l)
      else if SS.mem l escaped then
        Refuted
          (Printf.sprintf "the address of %s escapes; its home is aliasable" l)
      else if l <> claimed then
        Refuted
          (Printf.sprintf "address re-matches %s but the plan claims %s" l
             claimed)
      else Proved
  in
  let verdict =
    match home with
    | None ->
      Refuted
        (Printf.sprintf "no store at origin %d in the raw slice of %s"
           s.I.origin fname)
    | Some (_, w) when w <> Insn.Word ->
      Refuted "matched store is not word-width"
    | Some (Hnone, _) ->
      Refuted "store address does not re-match an unaliasable symbol-table home"
    | Some (Hlocal off, _) -> (
      let covers (e : Symtab.entry) o =
        match e.Symtab.location with
        | Symtab.Fp_offset base -> o >= base && o < base + Symtab.size_bytes e
        | Symtab.Absolute _ | Symtab.Data_label _ -> false
      in
      match
        List.find_opt
          (fun (e : Symtab.entry) -> e.Symtab.func = Some fname && covers e off)
          (Symtab.entries symtab)
      with
      | None ->
        Refuted
          (Printf.sprintf "no symbol of %s covers frame offset %d" fname off)
      | Some e -> local_verdict off e)
    | Some (Hglobal (l, off), _) -> global_verdict l off
  in
  let verdict =
    match verdict with
    | Proved when not premonitored ->
      Refuted
        (Printf.sprintf
           "origin %d is missing from the PreMonitor patch list of %s"
           s.I.origin claimed)
    | v -> v
  in
  mk ~origin:s.I.origin ~pseudo:claimed "sym"
    (Printf.sprintf "slot %d in %s" s.I.slot fname)
    verdict

(* --- whole-program structural obligations ------------------------------- *)

let verify_global_coverage (inst : I.t) =
  let bad =
    List.filter_map
      (fun (s : I.site) ->
        match s.I.status with
        | I.Loop_eliminated id ->
          if
            List.exists
              (fun (p : L.loop_plan) ->
                p.L.loop_id = id && List.mem s.I.origin p.L.eliminated)
              inst.I.loop_plans
          then None
          else
            Some
              (Printf.sprintf
                 "site at origin %d claims loop %d, but no plan of that loop \
                  covers it"
                 s.I.origin id)
        | I.Checked | I.Sym_eliminated _ -> None)
      inst.I.sites
  in
  let n_elim =
    List.length
      (List.filter
         (fun (s : I.site) ->
           match s.I.status with I.Loop_eliminated _ -> true | _ -> false)
         inst.I.sites)
  in
  mk "coverage"
    (Printf.sprintf "%d loop-eliminated site(s) across %d plan(s)" n_elim
       (List.length inst.I.loop_plans))
    (match bad with [] -> Proved | m :: _ -> Refuted m)

let verify_premonitor (inst : I.t) =
  let from_sites =
    List.filter_map
      (fun (s : I.site) ->
        match s.I.status with
        | I.Sym_eliminated p -> Some (p, s.I.origin)
        | _ -> None)
      inst.I.sites
    |> List.sort_uniq compare
  in
  let from_table =
    List.concat_map
      (fun (p, os) -> List.map (fun o -> (p, o)) os)
      inst.I.sites_by_pseudo
    |> List.sort_uniq compare
  in
  let missing =
    List.filter (fun pr -> not (List.mem pr from_table)) from_sites
  in
  let extra =
    List.filter (fun pr -> not (List.mem pr from_sites)) from_table
  in
  let verdict =
    match (missing, extra) with
    | (p, o) :: _, _ ->
      Refuted
        (Printf.sprintf
           "matched site at origin %d (pseudo %s) is missing from the \
            PreMonitor patch list"
           o p)
    | [], (p, o) :: _ ->
      Refuted
        (Printf.sprintf
           "PreMonitor patch list names origin %d (pseudo %s) that is not a \
            matched site"
           o p)
    | [], [] -> Proved
  in
  mk "premonitor"
    (Printf.sprintf "%d matched site(s), %d patch-list entr(ies)"
       (List.length from_sites) (List.length from_table))
    verdict

(* Every eliminated site needs a Kessler patch stub the MRS can swing
   into place: its label, a faithful copy of the original store, and a
   branch back to just after the site. *)
let verify_patches text_arr (inst : I.t) =
  let label_index : (string, int) Hashtbl.t = Hashtbl.create 256 in
  Array.iteri
    (fun i item ->
      match item with
      | Asm.Label l ->
        if not (Hashtbl.mem label_index l) then Hashtbl.add label_index l i
      | _ -> ())
    text_arr;
  let n = Array.length text_arr in
  let check_site (s : I.site) =
    let pl = I.patch_label s.I.origin in
    let bl = I.back_label s.I.origin in
    match s.I.status with
    | I.Checked ->
      if Hashtbl.mem label_index pl || Hashtbl.mem label_index bl then
        Some
          (Printf.sprintf "checked site at origin %d has a patch stub"
             s.I.origin)
      else None
    | I.Sym_eliminated _ | I.Loop_eliminated _ -> (
      if not (Hashtbl.mem label_index bl) then
        Some
          (Printf.sprintf "eliminated site at origin %d has no return label"
             s.I.origin)
      else
        match Hashtbl.find_opt label_index pl with
        | None ->
          Some
            (Printf.sprintf "eliminated site at origin %d has no patch stub"
               s.I.origin)
        | Some pi -> (
          let first_insn =
            let rec go i =
              if i >= n then None
              else
                match text_arr.(i) with
                | Asm.Insn ins -> Some ins
                | Asm.Label _ | Asm.Comment _ -> go (i + 1)
                | Asm.Set_label _ -> None
            in
            go (pi + 1)
          in
          match first_insn with
          | Some ins when Insn.equal ins s.I.insn -> (
            let rec find_back i k =
              if i >= n || k = 0 then false
              else
                match text_arr.(i) with
                | Asm.Insn (Insn.Branch { cond = Cond.A; target = Insn.Sym l })
                  when l = bl ->
                  true
                | Asm.Label l when String.length l > 11
                                   && String.sub l 0 12 = "__dbp_patch_" ->
                  false
                | _ -> find_back (i + 1) (k - 1)
            in
            if find_back (pi + 1) 256 then None
            else
              Some
                (Printf.sprintf
                   "patch stub at origin %d never branches back to the site"
                   s.I.origin))
          | _ ->
            Some
              (Printf.sprintf
                 "patch stub at origin %d does not start with the original \
                  store"
                 s.I.origin)))
  in
  let bad = List.filter_map check_site inst.I.sites in
  let n_stubs =
    List.length
      (List.filter
         (fun (s : I.site) -> s.I.status <> I.Checked)
         inst.I.sites)
  in
  mk "patch"
    (Printf.sprintf "%d patch stub(s) audited" n_stubs)
    (match bad with [] -> Proved | m :: _ -> Refuted m)

(* §4.2 frame integrity: no instruction other than save/restore may
   define %fp, and indirect jumps are returns only. *)
let verify_fpdef text_arr =
  let bad = ref None in
  let count = ref 0 in
  Array.iter
    (fun item ->
      match item with
      | Asm.Insn ins ->
        if List.exists (Reg.equal Reg.fp) (Insn.defs ins) then begin
          incr count;
          match ins with
          | Insn.Save _ | Insn.Restore _ -> ()
          | _ ->
            if !bad = None then
              bad := Some "an instruction outside save/restore defines %fp"
        end
      | _ -> ())
    text_arr;
  mk "fpdef"
    (Printf.sprintf "%d %%fp definition(s), all window operations" !count)
    (match !bad with None -> Proved | Some m -> Refuted m)

let verify_indirect text_arr =
  let bad = ref None in
  let count = ref 0 in
  Array.iter
    (fun item ->
      match item with
      | Asm.Insn (Insn.Jmpl { rs1; _ }) ->
        incr count;
        if not (Reg.equal rs1 Reg.i7 || Reg.equal rs1 Reg.o7) then
          if !bad = None then
            bad :=
              Some
                (Printf.sprintf
                   "indirect jump through %s is not a return"
                   (Reg.to_string rs1))
      | _ -> ())
    text_arr;
  mk "indirect"
    (Printf.sprintf "%d indirect jump(s), returns only" !count)
    (match !bad with None -> Proved | Some m -> Refuted m)

(* Every save/restore inside instrumented code must be bracketed by
   the frame-integrity calls (§4.2); the scan tracks label scope so
   the monitor library's and patch stubs' own code is exempt. *)
let verify_frame text_arr (inst : I.t) =
  if not inst.I.control_checks then
    mk "frame" "control checks disabled; vacuously discharged" Proved
  else begin
    let fnames = List.map (fun (fi : L.fn_input) -> fi.L.fname) inst.I.fn_inputs in
    let n = Array.length text_arr in
    let in_scope = ref false in
    let bad = ref None in
    let saves = ref 0 in
    Array.iteri
      (fun idx item ->
        match item with
        | Asm.Label l ->
          if String.length l > 0 && l.[0] = '.' then ()
          else if
            starts_with "__dbp_site_" l
            || starts_with "__dbp_back_" l
            || starts_with "__dbp_rsite_" l
          then ()
          else if starts_with "__dbp_" l then in_scope := false
          else in_scope := List.mem l fnames
        | Asm.Insn (Insn.Save _) when !in_scope ->
          incr saves;
          let ok =
            idx + 2 < n
            &&
            match (text_arr.(idx + 1), text_arr.(idx + 2)) with
            | ( Asm.Insn (Insn.Call { target = Insn.Sym "__dbp_frame_enter" }),
                Asm.Insn Insn.Nop ) ->
              true
            | _ -> false
          in
          if (not ok) && !bad = None then
            bad :=
              Some
                (Printf.sprintf "save at item %d lacks the frame-entry call" idx)
        | Asm.Insn (Insn.Restore _) when !in_scope ->
          incr saves;
          let ok =
            idx >= 2
            &&
            match (text_arr.(idx - 2), text_arr.(idx - 1)) with
            | ( Asm.Insn (Insn.Call { target = Insn.Sym "__dbp_frame_exit" }),
                Asm.Insn Insn.Nop ) ->
              true
            | _ -> false
          in
          if (not ok) && !bad = None then
            bad :=
              Some
                (Printf.sprintf "restore at item %d lacks the frame-exit call"
                   idx)
        | _ -> ())
      text_arr;
    mk "frame"
      (Printf.sprintf "%d window operation(s) bracketed" !saves)
      (match !bad with None -> Proved | Some m -> Refuted m)
  end

(* --- audit-journal consistency ------------------------------------------ *)

let verify_audit (inst : I.t) (r : Audit.report) =
  let sites = inst.I.sites in
  let plan_check id origin =
    List.find_map
      (fun (p : L.loop_plan) ->
        if p.L.loop_id <> id then None
        else
          List.find_opt (fun chk -> check_origin chk = origin) p.L.checks)
      inst.I.loop_plans
  in
  let mismatch (s : I.site) (a : Audit.site) =
    if a.Audit.a_slot <> s.I.slot || a.Audit.a_origin <> s.I.origin then
      Some
        (Printf.sprintf "journal slot %d/origin %d vs plan slot %d/origin %d"
           a.Audit.a_slot a.Audit.a_origin s.I.slot s.I.origin)
    else
      match (s.I.status, a.Audit.a_verdict) with
      | I.Checked, Audit.Kept -> None
      | I.Sym_eliminated p, Audit.Sym_matched { pseudo; _ } ->
        if p = pseudo then None
        else
          Some
            (Printf.sprintf "origin %d: journal pseudo %s vs plan pseudo %s"
               s.I.origin pseudo p)
      | I.Loop_eliminated id, Audit.Loop_invariant { loop_id; bexpr; level }
        -> (
        if id <> loop_id then
          Some
            (Printf.sprintf "origin %d: journal loop %d vs plan loop %d"
               s.I.origin loop_id id)
        else
          match plan_check id s.I.origin with
          | Some (L.Inv { expr; level = lv; _ }) ->
            if
              bexpr = B.bexpr_to_string expr
              && level = B.level_name lv
            then None
            else
              Some
                (Printf.sprintf
                   "origin %d: journal records inv %s@%s but the plan checks \
                    %s@%s"
                   s.I.origin bexpr level
                   (B.bexpr_to_string expr)
                   (B.level_name lv))
          | _ ->
            Some
              (Printf.sprintf
                 "origin %d: journal says loop-invariant but the plan has no \
                  matching check"
                 s.I.origin))
      | I.Loop_eliminated id, Audit.Loop_range { loop_id; lo; hi; levels } -> (
        if id <> loop_id then
          Some
            (Printf.sprintf "origin %d: journal loop %d vs plan loop %d"
               s.I.origin loop_id id)
        else
          match plan_check id s.I.origin with
          | Some (L.Rng { lo = plo; hi = phi; lo_level; hi_level; _ }) ->
            if
              lo = B.bexpr_to_string plo
              && hi = B.bexpr_to_string phi
              && levels
                 = B.level_name lo_level ^ "/" ^ B.level_name hi_level
            then None
            else
              Some
                (Printf.sprintf
                   "origin %d: journal records range [%s, %s]@%s but the plan \
                    checks [%s, %s]@%s/%s"
                   s.I.origin lo hi levels
                   (B.bexpr_to_string plo)
                   (B.bexpr_to_string phi)
                   (B.level_name lo_level) (B.level_name hi_level))
          | _ ->
            Some
              (Printf.sprintf
                 "origin %d: journal says loop-range but the plan has no \
                  matching check"
                 s.I.origin))
      | _, v ->
        Some
          (Printf.sprintf "origin %d: journal verdict %s contradicts the plan"
             s.I.origin (Audit.verdict_name v))
  in
  let verdict =
    if List.length r.Audit.a_sites <> List.length sites then
      Refuted
        (Printf.sprintf "journal records %d site(s) but the plan has %d"
           (List.length r.Audit.a_sites)
           (List.length sites))
    else
      match
        List.find_map
          (fun (s, a) -> mismatch s a)
          (List.combine sites r.Audit.a_sites)
      with
      | Some m -> Refuted m
      | None -> Proved
  in
  mk "audit"
    (Printf.sprintf "%d journal site(s) joined against the plan"
       (List.length r.Audit.a_sites))
    verdict

(* --- the verifier -------------------------------------------------------- *)

(* Origin -> owning function; the first slice holding an item wins. *)
let fn_by_origin (inst : I.t) : (int, L.fn_input) Hashtbl.t =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun (fi : L.fn_input) ->
      List.iter
        (fun (idx, _) ->
          if not (Hashtbl.mem tbl idx) then Hashtbl.add tbl idx fi)
        fi.L.items)
    inst.I.fn_inputs;
  tbl

let run ?audit ?(tags = []) (inst : I.t) : report =
  let ctx_cache : (string, (ctx, string) result) Hashtbl.t =
    Hashtbl.create 8
  in
  let ctx_of fname =
    match Hashtbl.find_opt ctx_cache fname with
    | Some r -> r
    | None ->
      let r =
        match
          List.find_opt
            (fun (fi : L.fn_input) -> fi.L.fname = fname)
            inst.I.fn_inputs
        with
        | None -> Error ("no analysis inputs retained for function " ^ fname)
        | Some fi -> build_ctx fi
      in
      Hashtbl.replace ctx_cache fname r;
      r
  in
  let text_arr = Arr.of_list inst.I.program.Asm.text in
  let plan_obs =
    List.concat_map
      (fun (p : L.loop_plan) ->
        let unknown_checks m =
          List.map
            (fun chk ->
              mk ~origin:(check_origin chk) ~loop:p.L.loop_id
                (match chk with L.Inv _ -> "inv" | L.Rng _ -> "rng")
                (L.check_to_string chk)
                (Unknown m))
            p.L.checks
        in
        match ctx_of p.L.fname with
        | Error m ->
          mk ~loop:p.L.loop_id "preheader" p.L.fname
            (Unknown ("function pipeline rebuild failed: " ^ m))
          :: unknown_checks "function pipeline rebuild failed"
        | Ok c -> (
          match loop_for_plan c p with
          | Error m ->
            mk ~loop:p.L.loop_id "preheader" p.L.fname (Refuted m)
            :: unknown_checks "enclosing loop not identified"
          | Ok lp ->
            let st = cstate c lp in
            verify_preheader text_arr c lp p
            :: verify_plan_coverage inst p
            :: verify_dominance st p
            :: verify_alias inst c lp p
            :: verify_exits text_arr inst c lp p
            @ List.map (verify_check st p) p.L.checks))
      inst.I.loop_plans
  in
  let sym_obs =
    let escaped =
      lazy
        (escaped_globals_raw
           (List.filter_map
              (fun (fi : L.fn_input) ->
                match ctx_of fi.L.fname with
                | Ok c -> Some c.raw
                | Error _ -> None)
              inst.I.fn_inputs))
    in
    let fn_of = lazy (fn_by_origin inst) in
    (* per function: address-taken frame offsets and store homes, each
       from one walk of its raw TAC *)
    let tables : (string, int list * (int, home * Insn.width) Hashtbl.t) Hashtbl.t =
      Hashtbl.create 8
    in
    let tables_of (c : ctx) =
      match Hashtbl.find_opt tables c.fi.L.fname with
      | Some t -> t
      | None ->
        let t = (addr_taken_raw c.raw, store_homes c.raw) in
        Hashtbl.replace tables c.fi.L.fname t;
        t
    in
    List.filter_map
      (fun (s : I.site) ->
        match s.I.status with
        | I.Sym_eliminated claimed -> (
          match Hashtbl.find_opt (Lazy.force fn_of) s.I.origin with
          | None ->
            Some
              (mk ~origin:s.I.origin ~pseudo:claimed "sym" ""
                 (Refuted "site lies outside every retained function slice"))
          | Some fi -> (
            match ctx_of fi.L.fname with
            | Error m ->
              Some
                (mk ~origin:s.I.origin ~pseudo:claimed "sym" fi.L.fname
                   (Unknown ("function pipeline rebuild failed: " ^ m)))
            | Ok c ->
              (* [sites_by_pseudo] concatenates per-function results, so
                 the same pseudo can key several entries. *)
              let premonitored =
                List.exists
                  (fun (q, os) ->
                    String.equal q claimed && List.mem s.I.origin os)
                  inst.I.sites_by_pseudo
              in
              let addr_taken, homes = tables_of c in
              Some
                (verify_sym_site inst.I.symtab ~fname:fi.L.fname ~addr_taken
                   ~escaped:(Lazy.force escaped) ~premonitored
                   ~home:(Hashtbl.find_opt homes s.I.origin) s claimed)))
        | I.Checked | I.Loop_eliminated _ -> None)
      inst.I.sites
  in
  let whole_obs =
    [
      verify_global_coverage inst;
      verify_premonitor inst;
      verify_patches text_arr inst;
      verify_fpdef text_arr;
      verify_indirect text_arr;
      verify_frame text_arr inst;
    ]
    @ (match audit with Some r -> [ verify_audit inst r ] | None -> [])
  in
  let obs =
    List.mapi
      (fun i o -> { o with o_id = i })
      (plan_obs @ sym_obs @ whole_obs)
  in
  let count p = List.length (List.filter p obs) in
  {
    v_schema = schema_version;
    v_tags = List.sort compare tags;
    v_obligations = obs;
    v_proved = count (fun o -> match o.o_verdict with Proved -> true | _ -> false);
    v_refuted =
      count (fun o -> match o.o_verdict with Refuted _ -> true | _ -> false);
    v_unknown =
      count (fun o -> match o.o_verdict with Unknown _ -> true | _ -> false);
  }

let ok r = r.v_refuted = 0 && r.v_unknown = 0

(* --- rendering ----------------------------------------------------------- *)

let verdict_name = function
  | Proved -> "proved"
  | Refuted _ -> "refuted"
  | Unknown _ -> "unknown"

let verdict_reason = function Proved -> "" | Refuted m | Unknown m -> m

let pp_obligation ppf o =
  let where =
    String.concat ""
      [
        (match o.o_origin with
        | Some x -> Printf.sprintf " origin=%d" x
        | None -> "");
        (match o.o_loop with
        | Some x -> Printf.sprintf " loop=%d" x
        | None -> "");
        (match o.o_pseudo with Some p -> " pseudo=" ^ p | None -> "");
      ]
  in
  Fmt.pf ppf "#%03d %-10s%s: %s%s" o.o_id o.o_kind where
    (match o.o_verdict with
    | Proved -> "proved"
    | Refuted m -> "REFUTED — " ^ m
    | Unknown m -> "unknown — " ^ m)
    (if o.o_detail = "" then "" else " [" ^ o.o_detail ^ "]")

let summary_line r =
  Printf.sprintf "verify: obligations=%d proved=%d refuted=%d unknown=%d"
    (List.length r.v_obligations)
    r.v_proved r.v_refuted r.v_unknown

let find_obligations r target =
  match int_of_string_opt target with
  | Some n -> List.filter (fun o -> o.o_origin = Some n) r.v_obligations
  | None -> List.filter (fun o -> o.o_pseudo = Some target) r.v_obligations

let explain r target =
  match find_obligations r target with
  | [] -> None
  | obs ->
    Some (String.concat "\n" (List.map (Fmt.str "%a" pp_obligation) obs))

(* --- JSON ---------------------------------------------------------------- *)

let obligation_to_json o : Export.json =
  Export.Obj
    [
      ("id", Export.Int o.o_id);
      ("kind", Export.Str o.o_kind);
      ("origin",
       match o.o_origin with Some x -> Export.Int x | None -> Export.Null);
      ("loop",
       match o.o_loop with Some x -> Export.Int x | None -> Export.Null);
      ("pseudo",
       match o.o_pseudo with Some p -> Export.Str p | None -> Export.Null);
      ("detail", Export.Str o.o_detail);
      ("verdict", Export.Str (verdict_name o.o_verdict));
      ("reason", Export.Str (verdict_reason o.o_verdict));
    ]

let to_json r : Export.json =
  Export.Obj
    [
      ("schema", Export.Str r.v_schema);
      ("tags", Export.Obj (List.map (fun (k, v) -> (k, Export.Str v)) r.v_tags));
      ( "summary",
        Export.Obj
          [
            ("obligations", Export.Int (List.length r.v_obligations));
            ("proved", Export.Int r.v_proved);
            ("refuted", Export.Int r.v_refuted);
            ("unknown", Export.Int r.v_unknown);
          ] );
      ("obligations", Export.List (List.map obligation_to_json r.v_obligations));
    ]

let to_json_string ?indent r = Export.json_to_string ?indent (to_json r)
