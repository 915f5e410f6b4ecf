(* Mutation operators for the verifier's kill gate.  Each mutant makes
   one small, plausible-looking corruption of a finished instrumentation
   plan (or of its audit journal) — the kind of wrong answer a buggy
   analysis or a bad merge could produce.  The gate requires that
   {!Verify.run} refutes every applicable mutant; a mutant that still
   proves clean means an obligation is missing. *)

open Sparc
module I = Dbp.Instrument
module L = Dbp.Loopopt
module B = Ir.Bounds

type mutant = {
  m_name : string;
  m_apply :
    I.t -> Audit.report option -> (I.t * Audit.report option) option;
}

(* --- helpers ---------------------------------------------------------------------- *)

let replace_plan (inst : I.t) (old_p : L.loop_plan) (new_p : L.loop_plan) =
  {
    inst with
    I.loop_plans =
      List.map
        (fun p -> if p == old_p then new_p else p)
        inst.I.loop_plans;
  }

let first_plan_with f (inst : I.t) = List.find_opt f inst.I.loop_plans

(* A plan mutation that leaves the audit journal untouched: the
   journal still records the truth, so even mutations the core proof
   engine cannot decide are caught by the audit cross-check. *)
let plan_mutant name pick =
  {
    m_name = name;
    m_apply =
      (fun inst audit ->
        Option.map (fun inst' -> (inst', audit)) (pick inst));
  }

let map_first f xs =
  let rec go = function
    | [] -> None
    | x :: rest -> (
      match f x with
      | Some x' -> Some (x' :: rest)
      | None -> Option.map (fun rest' -> x :: rest') (go rest))
  in
  go xs

let bump e k = B.normalize (B.Badd (e, B.Bconst k))

(* --- check-expression mutants ----------------------------------------------------- *)

let mutate_check name f =
  plan_mutant name (fun inst ->
      first_plan_with
        (fun p -> List.exists (fun c -> f c <> None) p.L.checks)
        inst
      |> Option.map (fun p ->
             let checks =
               match map_first f p.L.checks with
               | Some cs -> cs
               | None -> assert false
             in
             replace_plan inst p { p with L.checks }))

let swap_rng_bounds =
  mutate_check "swap_rng_bounds" (function
    | L.Rng r ->
      Some
        (L.Rng
           {
             r with
             lo = r.hi;
             hi = r.lo;
             lo_level = r.hi_level;
             hi_level = r.lo_level;
           })
    | L.Inv _ -> None)

let retarget_inv_expr =
  mutate_check "retarget_inv_expr" (function
    | L.Inv i -> Some (L.Inv { i with expr = bump i.expr 4 })
    | L.Rng _ -> None)

let inflate_rng_lo =
  mutate_check "inflate_rng_lo" (function
    | L.Rng r -> Some (L.Rng { r with lo = bump r.lo 8 })
    | L.Inv _ -> None)

let shrink_rng_hi =
  mutate_check "shrink_rng_hi" (function
    | L.Rng r -> Some (L.Rng { r with hi = bump r.hi (-8) })
    | L.Inv _ -> None)

(* Claim that a range check's store never moves: the first [Rng] becomes
   an [Inv] on its [lo] bound, and the site's journalled verdict is
   rewritten to match, so only the proof engine can refute it. *)
let rng_to_inv =
  let to_inv = function
    | L.Rng { lo; width; origin; lo_level; _ } ->
      Some (L.Inv { expr = lo; width; origin; level = lo_level })
    | L.Inv _ -> None
  in
  let mutant = mutate_check "rng_to_inv" to_inv in
  let target (p : L.loop_plan) =
    Option.map (fun c -> (p, c)) (List.find_map to_inv p.L.checks)
  in
  let m_apply inst audit =
    match (mutant.m_apply inst audit, List.find_map target inst.I.loop_plans) with
    | Some (inst', audit), Some (p, L.Inv { expr; origin; level; _ }) ->
      let verdict =
        Audit.Loop_invariant
          { loop_id = p.L.loop_id; bexpr = B.bexpr_to_string expr; level = B.level_name level }
      in
      let retag (a : Audit.site) =
        if a.Audit.a_origin = origin then { a with Audit.a_verdict = verdict } else a
      in
      let retag_all (r : Audit.report) = { r with Audit.a_sites = List.map retag r.Audit.a_sites } in
      Some (inst', Option.map retag_all audit)
    | _ -> None
  in
  { mutant with m_apply }

(* --- plan-structure mutants ------------------------------------------------------- *)

(* Claim one more store than the checks cover: pull a Checked site of
   the same function into the plan's eliminated list. *)
let widen_eliminated =
  plan_mutant "widen_eliminated" (fun inst ->
      List.find_map
        (fun (p : L.loop_plan) ->
          List.find_map
            (fun (s : I.site) ->
              match s.I.status with
              | I.Checked when not (List.mem s.I.origin p.L.eliminated)
                ->
                Some
                  (replace_plan inst p
                     {
                       p with
                       L.eliminated = s.I.origin :: p.L.eliminated;
                     })
              | _ -> None)
            inst.I.sites)
        inst.I.loop_plans)

let drop_preheader_check =
  plan_mutant "drop_preheader_check" (fun inst ->
      first_plan_with (fun p -> p.L.checks <> []) inst
      |> Option.map (fun p ->
             replace_plan inst p { p with L.checks = List.tl p.L.checks }))

let forget_alias_pseudo =
  plan_mutant "forget_alias_pseudo" (fun inst ->
      first_plan_with (fun p -> p.L.alias_pseudos <> []) inst
      |> Option.map (fun p ->
             replace_plan inst p
               { p with L.alias_pseudos = List.tl p.L.alias_pseudos }))

let move_preheader =
  plan_mutant "move_preheader" (fun inst ->
      first_plan_with (fun _ -> true) inst
      |> Option.map (fun p ->
             replace_plan inst p
               { p with L.header_item = p.L.header_item + 1 }))

(* Transplant an eliminated store into a loop that never contains it. *)
let cross_loop_eliminate =
  plan_mutant "cross_loop_eliminate" (fun inst ->
      match
        List.filter (fun p -> p.L.eliminated <> []) inst.I.loop_plans
      with
      | a :: b :: _ ->
        let moved = List.hd a.L.eliminated in
        let inst = replace_plan inst a
            { a with L.eliminated = List.tl a.L.eliminated }
        in
        let b' =
          List.find
            (fun p -> p.L.loop_id = b.L.loop_id)
            inst.I.loop_plans
        in
        Some
          (replace_plan inst b'
             { b' with L.eliminated = moved :: b'.L.eliminated })
      | _ -> None)

(* --- symbol-table mutants --------------------------------------------------------- *)

(* Claim a §4.2 match for a store the matcher (rightly) kept. *)
let mark_escaped_matched =
  plan_mutant "mark_escaped_matched" (fun inst ->
      let pseudo =
        List.find_map
          (fun (s : I.site) ->
            match s.I.status with
            | I.Sym_eliminated p -> Some p
            | _ -> None)
          inst.I.sites
      in
      Option.bind pseudo (fun pseudo ->
          map_first
            (fun (s : I.site) ->
              match s.I.status with
              | I.Checked ->
                Some { s with I.status = I.Sym_eliminated pseudo }
              | _ -> None)
            inst.I.sites
          |> Option.map (fun sites -> { inst with I.sites })))

let bogus_sym_pseudo =
  plan_mutant "bogus_sym_pseudo" (fun inst ->
      map_first
        (fun (s : I.site) ->
          match s.I.status with
          | I.Sym_eliminated p ->
            Some { s with I.status = I.Sym_eliminated (p ^ "_x") }
          | _ -> None)
        inst.I.sites
      |> Option.map (fun sites -> { inst with I.sites }))

let forget_premonitor_entry =
  plan_mutant "forget_premonitor_entry" (fun inst ->
      map_first
        (fun (pseudo, origins) ->
          match origins with
          | _ :: rest -> Some (pseudo, rest)
          | [] -> None)
        inst.I.sites_by_pseudo
      |> Option.map (fun sites_by_pseudo ->
             { inst with I.sites_by_pseudo }))

(* --- emitted-program mutants ------------------------------------------------------ *)

let set_text (inst : I.t) text =
  { inst with I.program = { inst.I.program with Asm.text } }

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

(* Delete a patch stub: everything from its label through the [ba]
   back to the site. *)
let drop_patch_stub =
  plan_mutant "drop_patch_stub" (fun inst ->
      let text = inst.I.program.Asm.text in
      let rec split acc = function
        | Asm.Label l :: rest when starts_with "__dbp_patch_" l ->
          let rec drop = function
            | Asm.Insn (Insn.Branch { cond = Cond.A; target = Insn.Sym b })
              :: rest'
              when starts_with "__dbp_back_" b ->
              rest'
            | _ :: rest' -> drop rest'
            | [] -> []
          in
          Some (List.rev_append acc (drop rest))
        | item :: rest -> split (item :: acc) rest
        | [] -> None
      in
      Option.map (set_text inst) (split [] text))

(* Delete one §4.2 frame-integrity call (and its delay nop). *)
let drop_frame_call =
  {
    m_name = "drop_frame_call";
    m_apply =
      (fun inst audit ->
        if not inst.I.control_checks then None
        else
          let rec split acc = function
            | Asm.Insn (Insn.Call { target = Insn.Sym f })
              :: Asm.Insn Insn.Nop :: rest
              when String.equal f "__dbp_frame_enter" ->
              Some (List.rev_append acc rest)
            | item :: rest -> split (item :: acc) rest
            | [] -> None
          in
          Option.map
            (fun text -> (set_text inst text, audit))
            (split [] inst.I.program.Asm.text));
  }

(* --- journal mutant --------------------------------------------------------------- *)

(* Rewrite the journal to deny an elimination the plan performed. *)
let flip_audit_verdict =
  {
    m_name = "flip_audit_verdict";
    m_apply =
      (fun inst audit ->
        Option.bind audit (fun (r : Audit.report) ->
            map_first
              (fun (a : Audit.site) ->
                match a.Audit.a_verdict with
                | Audit.Kept -> None
                | _ -> Some { a with Audit.a_verdict = Audit.Kept })
              r.Audit.a_sites
            |> Option.map (fun a_sites ->
                   (inst, Some { r with Audit.a_sites }))));
  }

let all =
  [
    widen_eliminated;
    drop_preheader_check;
    swap_rng_bounds;
    retarget_inv_expr;
    inflate_rng_lo;
    shrink_rng_hi;
    rng_to_inv;
    move_preheader;
    cross_loop_eliminate;
    forget_alias_pseudo;
    mark_escaped_matched;
    bogus_sym_pseudo;
    forget_premonitor_entry;
    drop_patch_stub;
    drop_frame_call;
    flip_audit_verdict;
  ]
