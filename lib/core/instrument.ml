open Sparc

(* The analysis-and-patching tool (§2.1): an extra stage between the
   compiler and the assembler that inserts a check after every write
   instruction — except those the optimizations of §4 eliminate. *)

type opt_level = O0 | O_symbol | O_full

type options = {
  strategy : Strategy.t;
  opt : opt_level;
  check_aliases : bool;
  layout : Layout.t;
  fortran_idiom : bool;
  instrument_runtime : bool;
  nop_padding : int;
  exclude : string list;
      (* functions left unpatched, like the paper's standard libraries *)
  monitor_reads : bool;
      (* also check every load (§5's read-monitoring extension) *)
  disabled_guard : bool;
  single_cache : bool;
      (* ablations of the §2.1 guard and §3.1 per-type caches *)
}

let default_options =
  {
    strategy = Strategy.Bitmap_inline_registers;
    opt = O0;
    check_aliases = false;
    layout = Layout.v ();
    fortran_idiom = false;
    instrument_runtime = true;
    nop_padding = 0;
    exclude = [];
    monitor_reads = false;
    disabled_guard = true;
    single_cache = false;
  }

type status =
  | Checked
  | Sym_eliminated of string  (* pseudo the site belongs to *)
  | Loop_eliminated of int    (* loop id *)

type site = {
  origin : int;
  slot : int;  (* dense index into the telemetry per-site arrays *)
  fn : string;  (* the instrumented function holding the store *)
  width : Insn.width;
  write_type : Write_type.t;
  status : status;
  insn : Insn.t;  (* the original store, for patch stubs *)
}

type read_site = {
  r_origin : int;
  r_slot : int;
  r_width : Insn.width;
  r_write_type : Write_type.t;
}

type sym_stats = { matched_store_sites : int; matched_loads : int }

type t = {
  program : Asm.program;
  options : options;
  sites : site list;
  read_sites : read_site list;
  sites_by_pseudo : (string * int list) list;
  loop_plans : Loopopt.loop_plan list;
  sym_stats : sym_stats;
  loop_stats : Loopopt.stats;
  control_checks : bool;
  functions : string list;
  symtab : Symtab.t;
  fn_inputs : Loopopt.fn_input list;
      (* per-function analysis inputs (post-symopt TAC + raw slice),
         retained so lib/verify can re-derive the plan independently *)
}

let site_label origin = Printf.sprintf "__dbp_site_%d" origin
let read_site_label origin = Printf.sprintf "__dbp_rsite_%d" origin
let back_label origin = Printf.sprintf "__dbp_back_%d" origin
let patch_label origin = Printf.sprintf "__dbp_patch_%d" origin

let i insn = Asm.Insn insn

let loop_trap ~env ~trap id =
  let skip = Checkgen.fresh env "ltrap" in
  [ i (Asm.tst (Reg.g 6)); i (Asm.branch Cond.Ne skip) ]
  @ List.map i (Asm.set id (Reg.g 5))
  @ [ i (Asm.trap trap); Asm.Label skip ]

let run ?audit ?trace (options : options) (out : Minic.Codegen.output) : t =
  let span name f =
    match trace with Some tr -> Trace.with_span tr name f | None -> f ()
  in
  let items = Arr.of_list out.program.text in
  let function_labels = "_start" :: out.functions in
  let instrumented_functions =
    let fs =
      if options.instrument_runtime then function_labels
      else
        List.filter
          (fun f -> not (List.mem f Minic.Runtime.function_names))
          function_labels
    in
    List.filter (fun f -> not (List.mem f options.exclude)) fs
  in
  let slices, lifted =
    span "lift" (fun () ->
        let slices = Ir.Lift.slice_program ~function_labels out.program.text in
        let slices =
          List.filter
            (fun s -> List.mem s.Ir.Lift.fname instrumented_functions)
            slices
        in
        (slices, List.map (fun s -> (s, Ir.Lift.lift_slice s)) slices))
  in
  (* --- analysis --------------------------------------------------------- *)
  let sym_results, extra_call_defs =
    if options.opt = O0 then ([], [])
    else
      span "symopt" @@ fun () ->
      let escaped = Symopt.escaped_globals (List.map snd lifted) in
      let results =
        List.map
          (fun ((s : Ir.Lift.slice), tac) ->
            (s, Symopt.rewrite ?audit out.symtab ~fname:s.fname ~escaped tac))
          lifted
      in
      let globals =
        List.concat_map (fun (_, r) -> r.Symopt.global_pseudos) results
        |> List.sort_uniq compare
        |> List.map (fun p -> Ir.Tac.Pseudo p)
      in
      (results, globals)
  in
  let loop_plans, loop_stats =
    if options.opt <> O_full then
      ([], { Loopopt.loops_seen = 0; loops_optimized = 0; invariant_checks = 0;
             range_checks = 0 })
    else begin
      let counter = ref 0 in
      let next_loop_id () = incr counter; !counter in
      span "loopopt" @@ fun () ->
      List.fold_left
        (fun (plans, stats) ((s : Ir.Lift.slice), r) ->
          if s.fname = "_start" then (plans, stats)
          else begin
            let p, st =
              Loopopt.analyze ~next_loop_id ?trace
                { Loopopt.fname = s.fname; tac = r.Symopt.tac;
                  items = s.items; extra_call_defs }
            in
            ( plans @ p,
              {
                Loopopt.loops_seen = stats.Loopopt.loops_seen + st.Loopopt.loops_seen;
                loops_optimized = stats.loops_optimized + st.loops_optimized;
                invariant_checks = stats.invariant_checks + st.invariant_checks;
                range_checks = stats.range_checks + st.range_checks;
              } )
          end)
        ( [],
          { Loopopt.loops_seen = 0; loops_optimized = 0; invariant_checks = 0;
            range_checks = 0 } )
        sym_results
    end
  in
  (* Alias-checked runs refuse loops whose exits cannot be tracked. *)
  let loop_plans =
    if options.check_aliases then
      List.filter
        (fun (p : Loopopt.loop_plan) ->
          not p.contains_ret || p.alias_pseudos = [])
        loop_plans
    else loop_plans
  in
  (* Provenance: the surviving plans carry the final §4.3 verdicts —
     recorded only now, after alias filtering, so the journal never
     claims an elimination the emitted program does not perform. *)
  (match audit with
  | Some a ->
    List.iter
      (fun (p : Loopopt.loop_plan) ->
        List.iter
          (fun (c : Loopopt.check) ->
            match c with
            | Loopopt.Inv { expr; origin; level; _ } ->
              Audit.loop_invariant a ~origin ~loop_id:p.loop_id
                ~bexpr:(Ir.Bounds.bexpr_to_string expr)
                ~level:(Ir.Bounds.level_name level)
            | Loopopt.Rng { lo; hi; origin; lo_level; hi_level; _ } ->
              Audit.loop_range a ~origin ~loop_id:p.loop_id
                ~lo:(Ir.Bounds.bexpr_to_string lo)
                ~hi:(Ir.Bounds.bexpr_to_string hi)
                ~levels:
                  (Ir.Bounds.level_name lo_level ^ "/"
                  ^ Ir.Bounds.level_name hi_level))
          p.checks;
        List.iter
          (fun (var, bounds) ->
            Audit.lattice a ~fn:p.fname ~loop_id:p.loop_id ~var ~bounds)
          p.lattice)
      loop_plans
  | None -> ());
  (* --- site table -------------------------------------------------------- *)
  let sym_eliminated : (int, string) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (_, (r : Symopt.result)) ->
      List.iter
        (fun (s : Symopt.store_site) ->
          Hashtbl.replace sym_eliminated s.origin s.pseudo)
        r.Symopt.matched_stores)
    sym_results;
  let loop_eliminated : (int, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (p : Loopopt.loop_plan) ->
      List.iter (fun o -> Hashtbl.replace loop_eliminated o p.loop_id) p.eliminated)
    loop_plans;
  (* The instrumented function holding an item, if any. *)
  let fn_of =
    let ranges =
      List.map
        (fun (s : Ir.Lift.slice) ->
          match s.items with
          | (first, _) :: _ ->
            let last = List.fold_left (fun _ (k, _) -> k) first s.items in
            (s.Ir.Lift.fname, first, last)
          | [] -> (s.Ir.Lift.fname, 0, -1))
        slices
    in
    fun idx ->
      List.find_map
        (fun (f, a, b) -> if idx >= a && idx <= b then Some f else None)
        ranges
  in
  let in_instrumented idx = fn_of idx <> None in
  let sites = ref [] in
  span "plan" (fun () ->
      Array.iteri
        (fun idx item ->
          match item with
          | Asm.Insn (Insn.St { width; _ } as st) -> (
            match fn_of idx with
            | None -> ()
            | Some fn ->
              let write_type =
                Write_type.classify ~fortran_idiom:options.fortran_idiom items idx
              in
              let status =
                match Hashtbl.find_opt sym_eliminated idx with
                | Some pseudo -> Sym_eliminated pseudo
                | None -> (
                  match Hashtbl.find_opt loop_eliminated idx with
                  | Some id -> Loop_eliminated id
                  | None -> Checked)
              in
              sites :=
                { origin = idx; slot = 0; fn; width; write_type; status;
                  insn = st }
                :: !sites)
          | _ -> ())
        items);
  (* Slots are dense indices in program order: the telemetry layer sizes
     its per-site exec/hit arrays off them at instrument time. *)
  let sites = List.mapi (fun i s -> { s with slot = i }) (List.rev !sites) in
  let site_of : (int, site) Hashtbl.t = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace site_of s.origin s) sites;
  (* Finalize the journal's site entries: join each slot against the
     decisions the optimizers recorded by origin. *)
  (match audit with
  | Some a ->
    List.iter
      (fun s ->
        Audit.record_site a ~slot:s.slot ~origin:s.origin ~fn:s.fn
          ~write_type:(Write_type.to_string s.write_type))
      sites
  | None -> ());
  let read_sites = ref [] in
  if options.monitor_reads then
    Array.iteri
      (fun idx item ->
        match item with
        | Asm.Insn (Insn.Ld { width; _ }) when in_instrumented idx ->
          let r_write_type =
            Write_type.classify_load ~fortran_idiom:options.fortran_idiom items idx
          in
          read_sites :=
            { r_origin = idx; r_slot = 0; r_width = width; r_write_type }
            :: !read_sites
        | _ -> ())
      items;
  let read_sites =
    List.mapi (fun i r -> { r with r_slot = i }) (List.rev !read_sites)
  in
  let read_site_of : (int, read_site) Hashtbl.t = Hashtbl.create 256 in
  List.iter (fun r -> Hashtbl.replace read_site_of r.r_origin r) read_sites;
  (* --- emission ----------------------------------------------------------- *)
  let env =
    Checkgen.make_env ~disabled_guard:options.disabled_guard
      ~single_cache:options.single_cache ~layout:options.layout
      ~strategy:options.strategy ()
  in
  let control_checks = options.opt <> O0 && options.nop_padding = 0 in
  let entry_at : (int, Loopopt.loop_plan list) Hashtbl.t = Hashtbl.create 16 in
  let exit_at : (int, Loopopt.loop_plan list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (p : Loopopt.loop_plan) ->
      Hashtbl.replace entry_at p.header_item
        (p :: Option.value ~default:[] (Hashtbl.find_opt entry_at p.header_item));
      if options.check_aliases && p.alias_pseudos <> [] then
        List.iter
          (fun e ->
            Hashtbl.replace exit_at e
              (p :: Option.value ~default:[] (Hashtbl.find_opt exit_at e)))
          p.exit_items)
    loop_plans;
  let buf = ref [] in
  let emit item = buf := item :: !buf in
  let emit_all l = List.iter emit l in
  span "instrument" (fun () ->
  Array.iteri
    (fun idx item ->
      (match Hashtbl.find_opt entry_at idx with
      | Some plans ->
        List.iter
          (fun (p : Loopopt.loop_plan) ->
            emit_all (loop_trap ~env ~trap:Traps.loop_entry p.loop_id))
          plans
      | None -> ());
      (match Hashtbl.find_opt read_site_of idx, item with
      | Some r, Asm.Insn ld when options.nop_padding = 0 ->
        emit_all (Checkgen.read_check_items env ~write_type:r.r_write_type ld);
        emit (Asm.Label (read_site_label idx))
      | _, _ -> ());
      emit item;
      (match Hashtbl.find_opt exit_at idx with
      | Some plans ->
        List.iter
          (fun (p : Loopopt.loop_plan) ->
            emit_all (loop_trap ~env ~trap:Traps.loop_exit p.loop_id))
          plans
      | None -> ());
      match Hashtbl.find_opt site_of idx with
      | Some site ->
        (* The store itself was just emitted; move it behind its site
           label by re-emitting: labels are free, so place the label
           before the store instead. *)
        (match !buf with
        | store :: rest ->
          buf := store :: Asm.Label (site_label idx) :: rest
        | [] -> assert false);
        if options.nop_padding > 0 then
          for _ = 1 to options.nop_padding do emit (i Asm.nop) done
        else begin
          match site.status with
          | Checked ->
            emit_all (Checkgen.check_items env ~write_type:site.write_type site.insn)
          | Sym_eliminated _ | Loop_eliminated _ ->
            emit (Asm.Label (back_label idx))
        end
      | None ->
        (* Frame checks around window operations (§4.2). *)
        if control_checks && in_instrumented idx then begin
          match item with
          | Asm.Insn (Insn.Save _) ->
            emit (i (Asm.call "__dbp_frame_enter"));
            emit (i Asm.nop)
          | Asm.Insn (Insn.Restore _) ->
            (* The call must precede the restore: re-order. *)
            (match !buf with
            | restore :: rest ->
              buf := restore :: i Asm.nop :: i (Asm.call "__dbp_frame_exit") :: rest
            | [] -> assert false)
          | _ -> ()
        end)
    items);
  (* Patch stubs for every eliminated site. *)
  let stubs =
    List.concat_map
      (fun site ->
        match site.status with
        | Checked -> []
        | Sym_eliminated _ | Loop_eliminated _ ->
          (Asm.Label (patch_label site.origin) :: i site.insn
           :: Checkgen.check_items env ~write_type:site.write_type site.insn)
          @ [ i (Asm.ba (back_label site.origin)) ])
      sites
  in
  let library =
    if options.nop_padding > 0 then []
    else Checkgen.monitor_library env ~control_checks ~monitor_reads:options.monitor_reads
  in
  let text = List.rev !buf @ stubs @ library in
  let sites_by_pseudo =
    List.concat_map (fun (_, r) -> r.Symopt.sites_by_pseudo) sym_results
  in
  let sym_stats =
    {
      matched_store_sites = Hashtbl.length sym_eliminated;
      matched_loads =
        List.fold_left (fun a (_, r) -> a + r.Symopt.matched_loads) 0 sym_results;
    }
  in
  let fn_inputs =
    if options.opt = O0 then
      List.map
        (fun ((s : Ir.Lift.slice), tac) ->
          { Loopopt.fname = s.fname; tac; items = s.items; extra_call_defs = [] })
        lifted
    else
      List.map
        (fun ((s : Ir.Lift.slice), (r : Symopt.result)) ->
          { Loopopt.fname = s.fname; tac = r.Symopt.tac; items = s.items;
            extra_call_defs })
        sym_results
  in
  {
    program = { out.program with text };
    options;
    sites;
    read_sites;
    sites_by_pseudo;
    loop_plans;
    sym_stats;
    loop_stats;
    control_checks;
    functions = out.functions;
    symtab = out.symtab;
    fn_inputs;
  }
