open Sparc

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Full front-end pipeline used by several tests: compile mini-C, slice
   out one function, lift, build the CFG with asserts, dominators,
   loops, SSA. *)
type pipeline = {
  tac : Ir.Tac.instr list;
  cfg : Ir.Cfg.t;
  dom : Ir.Dominance.t;
  loops : Ir.Loops.loop list;
  ssa : Ir.Ssa.t;
}

let analyze ?(fname = "main") src =
  let out = Minic.Compile.compile src in
  let slices =
    Ir.Lift.slice_program
      ~function_labels:("_start" :: out.functions)
      out.program.text
  in
  let slice = List.find (fun s -> s.Ir.Lift.fname = fname) slices in
  let tac = Ir.Lift.lift_slice slice in
  let cfg = Ir.Cfg.insert_asserts (Ir.Cfg.build tac) in
  let dom = Ir.Dominance.compute cfg in
  let loops = Ir.Loops.find cfg dom in
  let ssa = Ir.Ssa.construct cfg dom in
  { tac; cfg; dom; loops; ssa }

(* --- lift ----------------------------------------------------------------- *)

let test_lift_shapes () =
  let p = analyze "int g; int main() { g = 1 + 2; return g; }" in
  let stores =
    List.filter (function Ir.Tac.Store _ -> true | _ -> false) p.tac
  in
  check_int "one store" 1 (List.length stores)

let test_lift_compare_tracking () =
  let p = analyze "int main() { int i; i = 0; while (i < 9) { i = i + 1; } return i; }" in
  let branches =
    List.filter_map
      (function Ir.Tac.Branch { compare; _ } -> Some compare | _ -> None)
      p.tac
  in
  check_bool "at least one conditional branch" true (branches <> []);
  check_bool "loop branch carries compare" true
    (List.exists (fun c -> c <> None) branches)

let test_lift_save_is_fp_arith () =
  let p = analyze "int main() { return 0; }" in
  let has_sp_def =
    List.exists
      (function
        | Ir.Tac.Def { dst = Ir.Tac.Machine r; rhs = Ir.Tac.Bin (Insn.Add, Ir.Tac.Name (Ir.Tac.Machine r2), Ir.Tac.Imm n); _ }
          ->
          Reg.equal r Reg.sp && Reg.equal r2 Reg.fp && n < 0
        | _ -> false)
      p.tac
  in
  check_bool "save lifted to %sp := %fp - frame" true has_sp_def

(* --- cfg -------------------------------------------------------------------- *)

let test_cfg_diamond () =
  let p =
    analyze "int main() { int x; if (1 < 2) { x = 1; } else { x = 2; } return x; }"
  in
  (* Entry block must reach a block with two successors (the branch). *)
  let has_diamond =
    Array.exists (fun (b : Ir.Cfg.block) -> List.length b.succs = 2) p.cfg.blocks
  in
  check_bool "conditional produces two successors" true has_diamond;
  (* preds/succs must be mutually consistent. *)
  Array.iter
    (fun (b : Ir.Cfg.block) ->
      List.iter
        (fun s ->
          check_bool "succ lists pred" true
            (List.mem b.id (Ir.Cfg.block p.cfg s).preds))
        b.succs;
      List.iter
        (fun pr ->
          check_bool "pred lists succ" true
            (List.mem b.id (Ir.Cfg.block p.cfg pr).succs))
        b.preds)
    p.cfg.blocks

let test_cfg_asserts_present () =
  let p = analyze "int main() { int i; i = 0; while (i < 9) { i = i + 1; } return i; }" in
  let asserts = ref 0 in
  Array.iter
    (fun (b : Ir.Cfg.block) ->
      List.iter
        (function Ir.Tac.Assert _ -> incr asserts | _ -> ())
        b.body)
    p.cfg.blocks;
  check_bool "assert blocks inserted" true (!asserts > 0)

(* --- dominance ---------------------------------------------------------------- *)

let test_dominance_basic () =
  let p =
    analyze
      "int main() { int x; x = 0; if (x < 1) { x = 1; } else { x = 2; } return x; }"
  in
  let entry = p.cfg.entry in
  Array.iter
    (fun (b : Ir.Cfg.block) ->
      if Ir.Dominance.reachable p.dom b.id then begin
        check_bool "entry dominates all" true (Ir.Dominance.dominates p.dom entry b.id);
        check_bool "self domination" true (Ir.Dominance.dominates p.dom b.id b.id)
      end)
    p.cfg.blocks;
  (* The two arms of the diamond do not dominate each other. *)
  let branch_block =
    Array.to_list p.cfg.blocks
    |> List.find (fun (b : Ir.Cfg.block) -> List.length b.succs = 2)
  in
  (match branch_block.succs with
  | [ a; b ] ->
    check_bool "arms do not dominate each other" false
      (Ir.Dominance.dominates p.dom a b || Ir.Dominance.dominates p.dom b a)
  | _ -> Alcotest.fail "expected two successors")

(* --- loops --------------------------------------------------------------------- *)

let test_loops_single () =
  let p = analyze "int main() { int i; for (i = 0; i < 5; i = i + 1) { } return i; }" in
  check_int "one loop" 1 (List.length p.loops);
  let l = List.hd p.loops in
  check_int "depth" 1 l.Ir.Loops.depth;
  check_bool "header in body" true (Ir.Loops.in_loop l l.Ir.Loops.header);
  check_bool "has outside pred" true (l.Ir.Loops.outside_preds <> [])

let test_loops_nested () =
  let p =
    analyze
      "int main() { int i; int j; int n; n = 0; for (i = 0; i < 3; i = i + 1) \
       { for (j = 0; j < 3; j = j + 1) { n = n + 1; } } return n; }"
  in
  check_int "two loops" 2 (List.length p.loops);
  (match p.loops with
  | [ inner; outer ] ->
    check_int "inner depth" 2 inner.Ir.Loops.depth;
    check_int "outer depth" 1 outer.Ir.Loops.depth;
    check_bool "inner first (inside-out order)" true
      (inner.Ir.Loops.depth > outer.Ir.Loops.depth);
    check_bool "nesting" true
      (List.for_all (fun b -> List.mem b outer.Ir.Loops.body) inner.Ir.Loops.body)
  | _ -> Alcotest.fail "expected two loops")

(* --- SSA well-formedness --------------------------------------------------------- *)

let ssa_programs =
  [
    "int main() { int x; x = 1; if (x < 2) { x = 2; } return x; }";
    "int g; int f(int a) { return a + g; } int main() { g = 3; return f(4); }";
    "int main() { int i; int s; s = 0; for (i = 0; i < 9; i = i + 1) { if (i \
     % 2 == 0) { s = s + i; } else { s = s - 1; } } return s; }";
    "int a[10]; int main() { register int i; for (i = 0; i < 10; i = i + 1) \
     { a[i] = i * 3; } return a[5]; }";
    "int main() { int *p; p = malloc(8); *p = 1; while (*p < 5) { *p = *p + \
     2; } return *p; }";
  ]

let test_ssa_unique_defs () =
  List.iter
    (fun src ->
      let p = analyze src in
      let seen = Hashtbl.create 64 in
      Ir.Ssa.iter_instrs p.ssa (fun _ item ->
          let defs =
            match item with
            | `Phi ph -> [ ph.Ir.Ssa.dst ]
            | `Instr i -> Ir.Ssa.instr_defs i
          in
          List.iter
            (fun (v : Ir.Ssa.var) ->
              check_bool "no duplicate definition" false (Hashtbl.mem seen v);
              Hashtbl.replace seen v ())
            defs))
    ssa_programs

let test_ssa_uses_dominated () =
  List.iter
    (fun src ->
      let p = analyze src in
      let def_block = Hashtbl.create 64 in
      Ir.Ssa.iter_instrs p.ssa (fun blk item ->
          let defs =
            match item with
            | `Phi ph -> [ ph.Ir.Ssa.dst ]
            | `Instr i -> Ir.Ssa.instr_defs i
          in
          List.iter (fun v -> Hashtbl.replace def_block v blk) defs);
      Ir.Ssa.iter_instrs p.ssa (fun blk item ->
          match item with
          | `Phi ph ->
            (* A phi argument's definition must dominate the predecessor. *)
            List.iter
              (fun (pred, v) ->
                match Hashtbl.find_opt def_block v with
                | Some db ->
                  check_bool "phi arg def dominates pred" true
                    (Ir.Dominance.dominates p.dom db pred)
                | None -> check_int "entry version" 0 v.Ir.Ssa.version)
              ph.Ir.Ssa.args
          | `Instr i ->
            List.iter
              (fun (v : Ir.Ssa.var) ->
                match Hashtbl.find_opt def_block v with
                | Some db ->
                  check_bool "use dominated by def" true
                    (Ir.Dominance.dominates p.dom db blk)
                | None -> check_int "entry version" 0 v.Ir.Ssa.version)
              (Ir.Ssa.instr_uses i)))
    ssa_programs

let test_ssa_phi_args_match_preds () =
  List.iter
    (fun src ->
      let p = analyze src in
      Array.iteri
        (fun id (b : Ir.Ssa.block) ->
          let preds =
            List.filter
              (fun pr -> Ir.Dominance.reachable p.dom pr)
              (Ir.Cfg.block p.cfg id).preds
          in
          List.iter
            (fun (ph : Ir.Ssa.phi) ->
              check_int "one arg per reachable pred" (List.length preds)
                (List.length ph.args);
              List.iter
                (fun (pred, _) -> check_bool "arg pred is a pred" true (List.mem pred preds))
                ph.args)
            b.phis)
        p.ssa.blocks)
    ssa_programs

(* --- bounds ------------------------------------------------------------------ *)

let test_monotonic_register_loop () =
  let p =
    analyze
      "int a[100]; int main() { register int i; for (i = 0; i < 100; i = i + \
       1) { a[i] = i; } return 0; }"
  in
  check_int "one loop" 1 (List.length p.loops);
  let l = List.hd p.loops in
  let groups = Ir.Bounds.monotonic_groups p.ssa l in
  check_bool "induction variable found" true
    (List.exists (fun g -> g.Ir.Bounds.direction = Ir.Bounds.Increasing) groups)

let test_monotonic_decreasing () =
  let p =
    analyze
      "int a[100]; int main() { register int i; for (i = 99; i >= 0; i = i - \
       1) { a[i] = i; } return 0; }"
  in
  let l = List.hd p.loops in
  let groups = Ir.Bounds.monotonic_groups p.ssa l in
  check_bool "decreasing induction found" true
    (List.exists (fun g -> g.Ir.Bounds.direction = Ir.Bounds.Decreasing) groups)

let dispositions_of p l =
  let env, _ = Ir.Bounds.propagate (Ir.Bounds.prepare p.ssa) l in
  Ir.Bounds.dispositions p.ssa l env

let test_range_disposition () =
  let p =
    analyze
      "int a[100]; int main() { register int i; for (i = 0; i < 100; i = i + \
       1) { a[i] = 7; } return 0; }"
  in
  let decisions = dispositions_of p (List.hd p.loops) in
  let ranges =
    List.filter
      (fun (d : Ir.Bounds.store_decision) ->
        match d.disposition with Ir.Bounds.Range _ -> true | _ -> false)
      decisions
  in
  check_bool "array store gets a range check" true (ranges <> [])

let test_invariant_disposition () =
  let p =
    analyze
      "int g; int main() { register int i; for (i = 0; i < 50; i = i + 1) { \
       g = i; } return g; }"
  in
  let decisions = dispositions_of p (List.hd p.loops) in
  let invariants =
    List.filter
      (fun (d : Ir.Bounds.store_decision) ->
        match d.disposition with Ir.Bounds.Invariant _ -> true | _ -> false)
      decisions
  in
  check_bool "global store in loop is invariant-movable" true (invariants <> [])

let test_keep_disposition () =
  (* Address loaded from memory every iteration: unknown, must keep. *)
  let p =
    analyze
      "int main() { int *p; register int i; p = malloc(400); for (i = 0; i < \
       100; i = i + 1) { p[i] = i; p = p; } return 0; }"
  in
  let decisions = dispositions_of p (List.hd p.loops) in
  check_bool "stores through reloaded pointer kept" true
    (List.exists
       (fun (d : Ir.Bounds.store_decision) -> d.disposition = Ir.Bounds.Keep)
       decisions)

let test_range_bounds_shape () =
  (* The range expressions must be evaluable in the pre-header. *)
  let p =
    analyze
      "int a[64]; int main() { register int i; for (i = 0; i < 64; i = i + \
       1) { a[i] = 1; } return 0; }"
  in
  let l = List.hd p.loops in
  let decisions = dispositions_of p l in
  List.iter
    (fun (d : Ir.Bounds.store_decision) ->
      match d.disposition with
      | Ir.Bounds.Range { lo; hi; _ } ->
        check_bool "lo evaluable" true (Ir.Bounds.evaluable p.ssa l lo);
        check_bool "hi evaluable" true (Ir.Bounds.evaluable p.ssa l hi)
      | Ir.Bounds.Invariant { expr; _ } ->
        check_bool "inv evaluable" true (Ir.Bounds.evaluable p.ssa l expr)
      | Ir.Bounds.Keep -> ())
    decisions

let test_no_bound_without_assert () =
  (* Infinite loop: i has no upper bound, so a[i] cannot be ranged. *)
  let p =
    analyze
      "int a[8]; int main() { register int i; i = 0; while (1) { a[i & 7] = \
       i; i = i + 1; if (i == 3) { return 0; } } }"
  in
  match p.loops with
  | [] -> ()  (* acceptable: loop may be broken by the return *)
  | l :: _ ->
    let decisions = dispositions_of p l in
    (* a[i & 7] is range-checkable via the And rule even without an
       assert on i; the raw store to a[i] would not be.  Just require
       no crash and evaluable bounds. *)
    List.iter
      (fun (d : Ir.Bounds.store_decision) ->
        match d.disposition with
        | Ir.Bounds.Range { lo; hi; _ } ->
          check_bool "lo evaluable" true (Ir.Bounds.evaluable p.ssa l lo);
          check_bool "hi evaluable" true (Ir.Bounds.evaluable p.ssa l hi)
        | _ -> ())
      decisions

let test_call_in_loop_blocks_motion () =
  (* A call inside the loop may rewrite matched globals, so a store
     whose bound depends on one must stay checked when the analysis is
     given the global as a call-clobbered pseudo.  Here the array write
     is still range-checkable (its bounds come from the loop bounds),
    but a store through a pointer loaded from a global is not. *)
  let src =
    "int g; int bump() { g = g + 1; return g; } int main() { register int      i; int a[8]; for (i = 0; i < 8; i = i + 1) { a[i & 7] = bump(); }      return a[0]; }"
  in
  let p = analyze src in
  match p.loops with
  | [] -> Alcotest.fail "expected a loop"
  | l :: _ ->
    let decisions = dispositions_of p l in
    (* The a[i&7] store's address does not depend on the call. *)
    check_bool "some disposition computed" true (decisions <> [])

let test_nested_inner_then_outer () =
  (* The inner loop's stores get range checks from the inner analysis;
     re-analyzing the outer loop must not double-count them (the driver
     passes the already-eliminated set). *)
  let p =
    analyze
      "int a[64]; int main() { register int i; register int j; for (i = 0;        i < 8; i = i + 1) { for (j = 0; j < 8; j = j + 1) { a[i * 8 + j] = j;        } } return a[9]; }"
  in
  (match p.loops with
  | [ inner; outer ] ->
    check_bool "inner first" true (inner.Ir.Loops.depth > outer.Ir.Loops.depth);
    let inner_dec = dispositions_of p inner in
    let ranged =
      List.filter
        (fun (d : Ir.Bounds.store_decision) ->
          match d.disposition with Ir.Bounds.Range _ -> true | _ -> false)
        inner_dec
    in
    check_bool "inner loop ranges the store" true (ranged <> [])
  | _ -> Alcotest.fail "expected two loops")

let test_monotonic_stride () =
  (* Non-unit uniform strides are monotonic too (nasker's GMTRY). *)
  let p =
    analyze
      "int a[100]; int main() { register int i; for (i = 0; i < 100; i = i        + 3) { a[i] = i; } return 0; }"
  in
  let l = List.hd p.loops in
  check_bool "stride-3 induction found" true
    (List.exists
       (fun g -> g.Ir.Bounds.direction = Ir.Bounds.Increasing)
       (Ir.Bounds.monotonic_groups p.ssa l))

let test_non_uniform_not_monotonic () =
  (* A variable that sometimes decreases is not monotonic. *)
  let p =
    analyze
      "int a[100]; int main() { register int i; register int k; k = 0; for        (i = 0; i < 50; i = i + 1) { if (i & 1) { k = k + 3; } else { k = k -        1; } a[k & 63] = i; } return 0; }"
  in
  let l = List.hd p.loops in
  let groups = Ir.Bounds.monotonic_groups p.ssa l in
  (* i is monotonic; k must not be reported as a group. *)
  check_int "only the loop counter" 1 (List.length groups)

(* --- bound-expression normal form ----------------------------------------- *)

(* [Bounds.normalize] claims a canonical linear-combination form under
   the machine's wrapping 32-bit arithmetic; these properties pin the
   two halves of that claim on random expressions: the form is a fixed
   point, and it preserves (and [bexpr_equal] respects) the
   expression's value as a Word-valued function of its atoms. *)

let bexpr_atoms = [ "a"; "b"; "c" ]

let bexpr_var name version =
  Ir.Bounds.Bvar { Ir.Ssa.name = Ir.Tac.Pseudo name; version }

let bexpr_gen =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun c -> Ir.Bounds.Bconst c) (int_range (-2048) 2048);
        map2
          (fun l o -> Ir.Bounds.Blab (l, o))
          (oneofl bexpr_atoms) (int_range (-64) 64);
        map2 bexpr_var (oneofl bexpr_atoms) (int_range 0 2);
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           frequency
             [
               (1, leaf);
               ( 2,
                 map2
                   (fun a b -> Ir.Bounds.Badd (a, b))
                   (self (n / 2)) (self (n / 2)) );
               ( 2,
                 map2
                   (fun a b -> Ir.Bounds.Bsub (a, b))
                   (self (n / 2)) (self (n / 2)) );
               ( 1,
                 map2
                   (fun a c -> Ir.Bounds.Bmul (a, c))
                   (self (n / 2)) (int_range (-16) 16) );
               ( 1,
                 map2
                   (fun a c -> Ir.Bounds.Bshl (a, c))
                   (self (n / 2)) (int_range 0 8) );
             ])

let bexpr_arb =
  QCheck.make ~print:(Fmt.str "%a" Ir.Bounds.pp_bexpr) bexpr_gen

(* An environment assigns one Word to each atom: label [l] evaluates
   to env(l), and every version of variable [v] to env(v) — the same
   value space normalize's coefficient arithmetic lives in. *)
let bexpr_eval env e =
  let module W = Sparc.Word in
  let atom name = List.assoc name env in
  let rec go = function
    | Ir.Bounds.Bconst c -> W.norm c
    | Ir.Bounds.Blab (l, o) -> W.add (atom l) o
    | Ir.Bounds.Bvar v -> (
      match v.Ir.Ssa.name with
      | Ir.Tac.Pseudo n -> atom n
      | Ir.Tac.Machine _ -> 0)
    | Ir.Bounds.Badd (a, b) -> W.add (go a) (go b)
    | Ir.Bounds.Bsub (a, b) -> W.sub (go a) (go b)
    | Ir.Bounds.Bmul (a, c) -> W.mul (go a) c
    | Ir.Bounds.Bshl (a, c) -> W.sll (go a) c
  in
  go e

let env_gen =
  QCheck.Gen.(
    map
      (fun vals -> List.combine bexpr_atoms vals)
      (flatten_l
         (List.map (fun _ -> int_range (-1073741824) 1073741823) bexpr_atoms)))

let prop_normalize_idempotent =
  QCheck.Test.make ~name:"normalize is idempotent" ~count:500 bexpr_arb
    (fun e ->
      let n = Ir.Bounds.normalize e in
      n = Ir.Bounds.normalize n)

let prop_normalize_preserves_value =
  QCheck.Test.make ~name:"normalize preserves evaluation" ~count:500
    (QCheck.make
       QCheck.Gen.(pair bexpr_gen env_gen)
       ~print:(fun (e, _) -> Fmt.str "%a" Ir.Bounds.pp_bexpr e))
    (fun (e, env) ->
      bexpr_eval env e = bexpr_eval env (Ir.Bounds.normalize e))

(* bexpr_equal must identify rearrangements (sound completeness on the
   linear fragment) and must never identify expressions an evaluation
   can tell apart. *)
let prop_bexpr_equal_commutes =
  QCheck.Test.make ~name:"bexpr_equal identifies rearrangements" ~count:500
    (QCheck.make QCheck.Gen.(pair bexpr_gen bexpr_gen))
    (fun (a, b) ->
      Ir.Bounds.bexpr_equal
        (Ir.Bounds.Badd (a, b))
        (Ir.Bounds.Bsub (Ir.Bounds.Badd (b, Ir.Bounds.Badd (a, a)), a)))

let prop_bexpr_equal_sound =
  QCheck.Test.make ~name:"bexpr_equal agrees with evaluation" ~count:500
    (QCheck.make QCheck.Gen.(triple bexpr_gen bexpr_gen env_gen))
    (fun (a, b, env) ->
      (not (Ir.Bounds.bexpr_equal a b))
      || bexpr_eval env a = bexpr_eval env b)

let normalize_qchecks =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_normalize_idempotent;
      prop_normalize_preserves_value;
      prop_bexpr_equal_commutes;
      prop_bexpr_equal_sound;
    ]

let suites =
  [
    ( "ir.lift",
      [
        Alcotest.test_case "shapes and origins" `Quick test_lift_shapes;
        Alcotest.test_case "compare tracking" `Quick test_lift_compare_tracking;
        Alcotest.test_case "save becomes fp arithmetic" `Quick test_lift_save_is_fp_arith;
      ] );
    ( "ir.cfg",
      [
        Alcotest.test_case "diamond consistency" `Quick test_cfg_diamond;
        Alcotest.test_case "asserts inserted" `Quick test_cfg_asserts_present;
      ] );
    ("ir.dominance", [ Alcotest.test_case "basics" `Quick test_dominance_basic ]);
    ( "ir.loops",
      [
        Alcotest.test_case "single loop" `Quick test_loops_single;
        Alcotest.test_case "nested loops" `Quick test_loops_nested;
      ] );
    ( "ir.ssa",
      [
        Alcotest.test_case "unique definitions" `Quick test_ssa_unique_defs;
        Alcotest.test_case "uses dominated by defs" `Quick test_ssa_uses_dominated;
        Alcotest.test_case "phi args match preds" `Quick test_ssa_phi_args_match_preds;
      ] );
    ( "ir.bounds",
      [
        Alcotest.test_case "monotonic increasing" `Quick test_monotonic_register_loop;
        Alcotest.test_case "monotonic decreasing" `Quick test_monotonic_decreasing;
        Alcotest.test_case "range disposition" `Quick test_range_disposition;
        Alcotest.test_case "invariant disposition" `Quick test_invariant_disposition;
        Alcotest.test_case "keep disposition" `Quick test_keep_disposition;
        Alcotest.test_case "bounds evaluable in preheader" `Quick test_range_bounds_shape;
        Alcotest.test_case "masked index bounded" `Quick test_no_bound_without_assert;
        Alcotest.test_case "call in loop" `Quick test_call_in_loop_blocks_motion;
        Alcotest.test_case "nested inner-then-outer" `Quick test_nested_inner_then_outer;
        Alcotest.test_case "stride-3 monotonic" `Quick test_monotonic_stride;
        Alcotest.test_case "non-uniform not monotonic" `Quick
          test_non_uniform_not_monotonic;
      ] );
    ("ir.bounds.normalize", normalize_qchecks);
  ]
