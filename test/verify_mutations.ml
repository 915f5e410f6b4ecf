(* The verifier's own gate: on a pristine pipeline every obligation is
   proved, the verifier's covered-site set agrees exactly with the
   audit journal, and every seeded mutation of the plan (or of its
   journal) is refuted.  A surviving mutant means a missing proof
   obligation; an Unknown on a pristine workload means the candidate
   engine lost precision. *)

open Dbp

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let o_full = { Instrument.default_options with opt = Instrument.O_full }

let workload name =
  match Workloads.Spec.find name with
  | Some w -> w
  | None -> Alcotest.failf "no workload named %s" name

(* Instrumenting a workload at O_full is pure analysis (no execution)
   but still costs a compile + pipeline; share one session per
   workload across the whole suite. *)
let sessions : (string, Session.t) Hashtbl.t = Hashtbl.create 16

let session_for name =
  match Hashtbl.find_opt sessions name with
  | Some s -> s
  | None ->
    let w = workload name in
    let s = Session.create ~options:o_full w.Workloads.Workload.source in
    Hashtbl.add sessions name s;
    s

let verified name =
  let s = session_for name in
  Verify.run ~audit:(Audit.report s.Session.audit) s.Session.plan

let all_names =
  List.map (fun (w : Workloads.Workload.t) -> w.name) Workloads.Spec.all

(* --- pristine proofs -------------------------------------------------------------- *)

let test_pristine name () =
  let rep = verified name in
  check_bool "has obligations" true (rep.Verify.v_obligations <> []);
  List.iter
    (fun (o : Verify.obligation) ->
      match o.Verify.o_verdict with
      | Verify.Proved -> ()
      | Verify.Refuted _ | Verify.Unknown _ ->
        Alcotest.failf "%s: %a" name Verify.pp_obligation o)
    rep.Verify.v_obligations;
  check_bool "report ok" true (Verify.ok rep)

let test_summary_shape () =
  let rep = verified "030.matrix300" in
  let line = Verify.summary_line rep in
  check_bool "clean summary names zero failures" true
    (let sub = "refuted=0 unknown=0" in
     let rec find i =
       i + String.length sub <= String.length line
       && (String.equal (String.sub line i (String.length sub)) sub
          || find (i + 1))
     in
     find 0);
  check_string "schema pinned" "dbp-verify/1" rep.Verify.v_schema

(* --- audit cross-check ------------------------------------------------------------ *)

(* The verifier's per-site obligations (sym/inv/rng origins) must name
   exactly the sites the journal says lost their checks — no site
   verified that was not eliminated, none eliminated but unverified. *)
let covered_origins (rep : Verify.report) =
  List.filter_map
    (fun (o : Verify.obligation) ->
      match (o.Verify.o_kind, o.Verify.o_origin) with
      | ("sym" | "inv" | "rng"), Some origin -> Some origin
      | _ -> None)
    rep.Verify.v_obligations
  |> List.sort_uniq compare

let test_audit_crosscheck name () =
  let s = session_for name in
  let rep = verified name in
  let journal = Audit.report s.Session.audit in
  let eliminated =
    List.filter_map
      (fun (a : Audit.site) ->
        match a.Audit.a_verdict with
        | Audit.Kept -> None
        | _ -> Some a.Audit.a_origin)
      journal.Audit.a_sites
    |> List.sort_uniq compare
  in
  check_int
    (name ^ ": one covered origin per non-Kept journal site")
    (List.length eliminated)
    (List.length (covered_origins rep));
  List.iter2
    (fun a b -> check_int (name ^ ": covered origin") a b)
    eliminated
    (covered_origins rep)

(* --- mutation kills --------------------------------------------------------------- *)

(* Workloads chosen so that every operator applies on at least one:
   matrix300 has range checks, loop plans and sym matches; espresso
   adds invariant checks and multiple plans; li is the sym-heavy,
   no-loop-plan case. *)
let mutation_workloads = [ "030.matrix300"; "008.espresso"; "022.li" ]

let test_mutant_killed (m : Verify_mutate.mutant) () =
  let applied =
    List.filter_map
      (fun name ->
        let s = session_for name in
        let audit = Some (Audit.report s.Session.audit) in
        match m.Verify_mutate.m_apply s.Session.plan audit with
        | None -> None
        | Some (inst', audit') ->
          let rep = Verify.run ?audit:audit' inst' in
          Some (name, rep))
      mutation_workloads
  in
  check_bool
    (m.Verify_mutate.m_name ^ " applies to some mutation workload")
    true (applied <> []);
  List.iter
    (fun (name, (rep : Verify.report)) ->
      if rep.Verify.v_refuted = 0 then
        Alcotest.failf "mutant %s survived on %s: %s"
          m.Verify_mutate.m_name name (Verify.summary_line rep))
    applied

(* --- alias-checked exits ------------------------------------------------------------ *)

(* matrix300 with alias checks: its loop plans carry alias pseudos, so
   every exit edge of those loops must pass a loop-exit trap, or the
   alias regions the pre-header created outlive the loop. *)
let aliased =
  lazy
    (let s =
       Session.create
         ~options:{ o_full with Instrument.check_aliases = true }
         (workload "030.matrix300").Workloads.Workload.source
     in
     (s.Session.plan, Some (Audit.report s.Session.audit)))

let exit_verdicts (rep : Verify.report) =
  List.filter_map
    (fun (o : Verify.obligation) ->
      if o.Verify.o_kind = "exit" then Some o.Verify.o_verdict else None)
    rep.Verify.v_obligations

let test_exits_proved () =
  let plan, audit = Lazy.force aliased in
  let rep = Verify.run ?audit plan in
  check_bool "alias-checked loops have exit obligations" true
    (exit_verdicts rep <> []);
  check_bool "report ok" true (Verify.ok rep)

(* Delete the first loop-exit trap instruction from the emitted text. *)
let drop_loop_exit_trap : Verify_mutate.mutant =
  {
    Verify_mutate.m_name = "drop_loop_exit_trap";
    m_apply =
      (fun inst audit ->
        let rec split acc = function
          | Sparc.Asm.Insn (Sparc.Insn.Trap { number }) :: rest
            when number = Traps.loop_exit ->
            Some (List.rev_append acc rest)
          | item :: rest -> split (item :: acc) rest
          | [] -> None
        in
        Option.map
          (fun text ->
            ( { inst with
                Instrument.program = { inst.Instrument.program with Sparc.Asm.text } },
              audit ))
          (split [] inst.Instrument.program.Sparc.Asm.text));
  }

let test_drop_loop_exit_trap_killed () =
  let plan, audit = Lazy.force aliased in
  match drop_loop_exit_trap.Verify_mutate.m_apply plan audit with
  | None -> Alcotest.fail "no loop-exit trap to drop"
  | Some (plan', audit') ->
    let rep = Verify.run ?audit:audit' plan' in
    check_bool "an exit obligation is refuted" true
      (List.exists
         (function Verify.Refuted _ -> true | _ -> false)
         (exit_verdicts rep))

(* --- golden renderings ------------------------------------------------------------ *)

let render_checks (inst : Instrument.t) =
  List.concat_map
    (fun (p : Loopopt.loop_plan) ->
      List.map
        (fun c ->
          Printf.sprintf "%s/%d: %s" p.Loopopt.fname p.Loopopt.loop_id
            (Loopopt.check_to_string c))
        p.Loopopt.checks)
    inst.Instrument.loop_plans

(* matrix300's three pre-header checks, exactly as the planner renders
   them (the same strings the audit journal and --explain print). *)
let test_golden_checks_matrix300 () =
  let s = session_for "030.matrix300" in
  let got = render_checks s.Session.plan in
  let want =
    [
      "init/1: rng@28((&b + ($init.i.1 << 2))@Lm, &b+1932@La)";
      "init/1: rng@20((&a + ($init.i.1 << 2))@Lm, &a+1932@La)";
      "matmul/2: rng@102((&c + ((($matmul.i.3 * 22) + $matmul.j.2) << 2))@Lm, \
       (&c + ((($matmul.i.3 * 22) + 21) << 2))@La)";
    ]
  in
  check_int "three checks" (List.length want) (List.length got);
  List.iter2 (fun w g -> check_string "check rendering" w g) want got

let obligation_lines rep n =
  List.filteri (fun i _ -> i < n) rep.Verify.v_obligations
  |> List.map (Fmt.str "%a" Verify.pp_obligation)

let test_golden_obligations_matrix300 () =
  let rep = verified "030.matrix300" in
  let want =
    [
      "#000 preheader  loop=1: proved [init: guarded entry trap 1 before \
       header item 10]";
      "#001 coverage   loop=1: proved [2 eliminated site(s), 2 pre-header \
       check(s)]";
      "#002 dominance  loop=1: proved [header 1 covers 2 store(s)]";
      "#003 alias      loop=1: proved [alias pseudos: [init.i]]";
      "#004 rng        origin=28 loop=1: proved [rng@28((&b + ($init.i.1 \
       << 2))@Lm, &b+1932@La)]";
    ]
  in
  List.iter2
    (fun w g -> check_string "obligation rendering" w g)
    want
    (obligation_lines rep (List.length want))

let test_golden_obligations_li () =
  let rep = verified "022.li" in
  let want =
    [
      "#000 sym        origin=15 pseudo=seed: proved [slot 0 in next_rand]";
      "#001 sym        origin=30 pseudo=num_ptr.v: proved [slot 1 in num_ptr]";
      "#002 sym        origin=36 pseudo=num_ptr.c: proved [slot 2 in num_ptr]";
    ]
  in
  List.iter2
    (fun w g -> check_string "obligation rendering" w g)
    want
    (obligation_lines rep (List.length want))

(* --- JSON round-trip shape -------------------------------------------------------- *)

let test_json_shape () =
  let rep = verified "030.matrix300" in
  match Export.json_of_string (Verify.to_json_string ~indent:1 rep) with
  | Export.Obj fields ->
    check_bool "schema field" true
      (List.assoc_opt "schema" fields = Some (Export.Str "dbp-verify/1"));
    (match List.assoc_opt "obligations" fields with
    | Some (Export.List obs) ->
      check_int "one JSON entry per obligation"
        (List.length rep.Verify.v_obligations)
        (List.length obs)
    | _ -> Alcotest.fail "obligations list missing")
  | _ -> Alcotest.fail "verify JSON is not an object"

let suites =
  [
    ( "verify.pristine",
      List.map
        (fun name ->
          Alcotest.test_case name `Quick (test_pristine name))
        all_names
      @ [ Alcotest.test_case "summary shape" `Quick test_summary_shape ] );
    ( "verify.audit",
      List.map
        (fun name ->
          Alcotest.test_case ("crosscheck " ^ name) `Quick
            (test_audit_crosscheck name))
        all_names );
    ( "verify.mutation",
      List.map
        (fun (m : Verify_mutate.mutant) ->
          Alcotest.test_case
            ("kills " ^ m.Verify_mutate.m_name)
            `Quick (test_mutant_killed m))
        Verify_mutate.all
      @ [
          Alcotest.test_case "alias-checked exits proved" `Quick test_exits_proved;
          Alcotest.test_case "kills drop_loop_exit_trap" `Quick
            test_drop_loop_exit_trap_killed;
        ] );
    ( "verify.golden",
      [
        Alcotest.test_case "matrix300 checks" `Quick
          test_golden_checks_matrix300;
        Alcotest.test_case "matrix300 obligations" `Quick
          test_golden_obligations_matrix300;
        Alcotest.test_case "li obligations" `Quick
          test_golden_obligations_li;
        Alcotest.test_case "json shape" `Quick test_json_shape;
      ] );
  ]
