(* Loop optimization driver (§4.3): runs the IR pipeline per function,
   applies bound propagation to each loop from the innermost out, and
   plans pre-header checks for the eliminated in-loop write checks. *)

type check =
  | Inv of {
      expr : Ir.Bounds.bexpr;
      width : Sparc.Insn.width;
      origin : int;
      level : Ir.Bounds.level;
    }
  | Rng of {
      lo : Ir.Bounds.bexpr;
      hi : Ir.Bounds.bexpr;
      width : Sparc.Insn.width;
      origin : int;
      lo_level : Ir.Bounds.level;
      hi_level : Ir.Bounds.level;
    }

(* The canonical debug rendering of a planned pre-header check — the
   same string backs the audit journal, the verifier's details and
   `dbreak --explain`. *)
let check_to_string = function
  | Inv { expr; origin; level; _ } ->
    Printf.sprintf "inv@%d(%s@%s)" origin
      (Ir.Bounds.bexpr_to_string expr)
      (Ir.Bounds.level_name level)
  | Rng { lo; hi; origin; lo_level; hi_level; _ } ->
    Printf.sprintf "rng@%d(%s@%s, %s@%s)" origin
      (Ir.Bounds.bexpr_to_string lo)
      (Ir.Bounds.level_name lo_level)
      (Ir.Bounds.bexpr_to_string hi)
      (Ir.Bounds.level_name hi_level)

type loop_plan = {
  loop_id : int;
  fname : string;
  header_item : int;      (* item index of the header label *)
  checks : check list;
  eliminated : int list;  (* origins of stores whose checks move out *)
  alias_pseudos : string list;
  exit_items : int list;
      (* item indices of the first instruction each exit edge runs *)
  contains_ret : bool;
      (* a return inside the loop bypasses exit bookkeeping; alias-
         checked runs refuse to optimize such loops *)
  lattice : (string * string) list;
      (* the Figure-4 fixpoint at this loop: rendered SSA variable ->
         rendered bounds, deterministically ordered — provenance for
         the audit journal *)
}

type stats = {
  loops_seen : int;
  loops_optimized : int;
  invariant_checks : int;
  range_checks : int;
}

let pseudos_of_bexpr e =
  Ir.Bounds.bexpr_vars e
  |> List.filter_map (fun (v : Ir.Ssa.var) ->
         match v.name with
         | Ir.Tac.Pseudo p -> Some p
         | Ir.Tac.Machine _ -> None)

(* The pre-header insertion point is just before the header's label —
   valid only when every entry to the loop falls through into it (a
   jump to the header label from outside would skip inserted code). *)
let fallthrough_entry (cfg : Ir.Cfg.t) (loop : Ir.Loops.loop) =
  let header = Ir.Cfg.block cfg loop.header in
  header.labels <> []
  && List.for_all
       (fun p ->
         p = loop.header - 1
         &&
         match List.rev (Ir.Cfg.block cfg p).body with
         | (Ir.Tac.Jump _ | Ir.Tac.Ret _) :: _ -> false
         | Ir.Tac.Branch { target; _ } :: _ ->
           not (List.mem target header.labels)
         | _ -> true)
       loop.outside_preds

(* The item index of the first instruction an exit edge runs outside the
   loop.  An assert block that [Cfg.insert_asserts] put on the edge has
   no label and no code, and a label-only block falls through, so both
   defer to their successor. *)
let rec exit_point (cfg : Ir.Cfg.t) b =
  match (Ir.Cfg.block cfg b).body, (Ir.Cfg.block cfg b).succs with
  | (Ir.Tac.Assert _ :: _ | []), [ s ] -> exit_point cfg s
  | i :: _, _ -> Ir.Tac.origin i
  | [], _ -> None

let exit_points (cfg : Ir.Cfg.t) (loop : Ir.Loops.loop) =
  List.concat_map
    (fun b ->
      List.filter (fun s -> not (Ir.Loops.in_loop loop s)) (Ir.Cfg.block cfg b).succs)
    loop.body
  |> List.filter_map (exit_point cfg)
  |> List.sort_uniq compare

type fn_input = {
  fname : string;
  tac : Ir.Tac.instr list;       (* post symbol matching *)
  items : (int * Sparc.Asm.item) list;  (* the function's slice *)
  extra_call_defs : Ir.Tac.name list;
}

let analyze ~next_loop_id ?trace (input : fn_input) : loop_plan list * stats =
  let span name f =
    match trace with Some t -> Trace.with_span t name f | None -> f ()
  in
  let cfg, loops, ssa =
    span "cfg-ssa" (fun () ->
        let cfg = Ir.Cfg.insert_asserts (Ir.Cfg.build input.tac) in
        let dom = Ir.Dominance.compute cfg in
        let loops = Ir.Loops.find cfg dom in
        let ssa =
          Ir.Ssa.construct ~extra_call_defs:input.extra_call_defs cfg dom
        in
        (cfg, loops, ssa))
  in
  let label_item =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (idx, item) ->
        match item with
        | Sparc.Asm.Label l -> Hashtbl.replace tbl l idx
        | _ -> ())
      input.items;
    tbl
  in
  let eliminated_so_far = Hashtbl.create 32 in
  let stats =
    ref { loops_seen = List.length loops; loops_optimized = 0;
          invariant_checks = 0; range_checks = 0 }
  in
  let plans =
    span "bounds" @@ fun () ->
    (* the per-function tables, once, if any loop qualifies *)
    let fn = lazy (Ir.Bounds.prepare ssa) in
    List.filter_map
      (fun (loop : Ir.Loops.loop) ->
        if not (fallthrough_entry cfg loop) then None
        else begin
          let env, _groups = Ir.Bounds.propagate (Lazy.force fn) loop in
          let decisions = Ir.Bounds.dispositions ssa loop env in
          let checks, eliminated, alias =
            List.fold_left
              (fun (checks, elim, alias) (d : Ir.Bounds.store_decision) ->
                if Hashtbl.mem eliminated_so_far d.origin then (checks, elim, alias)
                else
                  match d.disposition with
                  | Ir.Bounds.Keep -> (checks, elim, alias)
                  | Ir.Bounds.Invariant { expr; level } ->
                    ( Inv { expr; width = d.width; origin = d.origin; level }
                      :: checks,
                      d.origin :: elim,
                      pseudos_of_bexpr expr @ alias )
                  | Ir.Bounds.Range { lo; hi; lo_level; hi_level } ->
                    ( Rng
                        { lo; hi; width = d.width; origin = d.origin;
                          lo_level; hi_level }
                      :: checks,
                      d.origin :: elim,
                      pseudos_of_bexpr lo @ pseudos_of_bexpr hi @ alias ))
              ([], [], []) decisions
          in
          if eliminated = [] then None
          else begin
            List.iter (fun o -> Hashtbl.replace eliminated_so_far o ()) eliminated;
            let header_label = List.hd (Ir.Cfg.block cfg loop.header).labels in
            let header_item =
              match Hashtbl.find_opt label_item header_label with
              | Some i -> i
              | None -> -1
            in
            if header_item < 0 then None
            else begin
              let exit_items = exit_points cfg loop in
              let n_inv =
                List.length (List.filter (function Inv _ -> true | Rng _ -> false) checks)
              in
              let n_rng = List.length checks - n_inv in
              stats :=
                {
                  !stats with
                  loops_optimized = !stats.loops_optimized + 1;
                  invariant_checks = !stats.invariant_checks + n_inv;
                  range_checks = !stats.range_checks + n_rng;
                };
              let id = next_loop_id () in
              let contains_ret =
                List.exists
                  (fun b ->
                    List.exists
                      (function Ir.Tac.Ret _ -> true | _ -> false)
                      (Ir.Cfg.block cfg b).body)
                  loop.body
              in
              Some
                {
                  loop_id = id;
                  fname = input.fname;
                  header_item;
                  checks;
                  eliminated;
                  alias_pseudos = List.sort_uniq compare alias;
                  exit_items;
                  contains_ret;
                  lattice = Ir.Bounds.env_bindings env;
                }
            end
          end
        end)
      loops
  in
  (plans, !stats)
