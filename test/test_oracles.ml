open Dbp

(* Exactness oracles for the single-pass renderers and verifier tables.
   Each oracle is the straightforward implementation the faster code
   replaced: Fmt-based printers and a sorter that renders inside its
   comparator, and a per-site walk of a function's raw TAC.  The fast
   paths must agree with them byte for byte. *)

module B = Ir.Bounds
module S = Ir.Ssa

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
let oracle_lattice (env : B.env) =
  B.VarTbl.fold (fun v b acc -> (v, b) :: acc) env []
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
          let env = B.VarTbl.create 16 in
          List.iter (fun (v, b) -> B.VarTbl.replace env v b) bindings;
          B.env_bindings env = oracle_lattice env);
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
   the same loop's fixpoint, rebuilt from the retained inputs. *)
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
            S.construct ~extra_call_defs:fi.Loopopt.extra_call_defs cfg dom
          in
          let loop =
            List.find
              (fun (l : Ir.Loops.loop) ->
                match (Ir.Cfg.block cfg l.Ir.Loops.header).Ir.Cfg.labels with
                | label :: _ -> label_item fi label = Some p.Loopopt.header_item
                | [] -> false)
              (Ir.Loops.find cfg dom)
          in
          let env, _ = B.propagate ssa loop in
          incr loops_checked;
          Alcotest.(check (list (pair string string)))
            (Printf.sprintf "%s loop %d lattice" name p.Loopopt.loop_id)
            (oracle_lattice env) p.Loopopt.lattice)
        inst.Instrument.loop_plans)
    (Lazy.force sessions);
  Alcotest.(check bool) "some loops optimized" true (!loops_checked > 0)

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

let suites =
  [
    ("oracle.render", printer_qchecks);
    ( "oracle.workloads",
      [
        Alcotest.test_case "lattice = oracle listing" `Quick
          test_lattice_matches_oracle;
        Alcotest.test_case "verifier tables = per-site walks" `Quick
          test_verify_tables_match_oracle;
      ] );
  ]
