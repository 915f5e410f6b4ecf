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
let exit_label origin = Printf.sprintf ".Ldbp_exit_%d" origin

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
      (match Hashtbl.find_opt exit_at idx with
      | Some plans ->
        emit (Asm.Label (exit_label idx));
        List.iter
          (fun (p : Loopopt.loop_plan) ->
            emit_all (loop_trap ~env ~trap:Traps.loop_exit p.loop_id))
          plans
      | None -> ());
      (match Hashtbl.find_opt read_site_of idx, item with
      | Some r, Asm.Insn ld when options.nop_padding = 0 ->
        emit_all (Checkgen.read_check_items env ~write_type:r.r_write_type ld);
        emit (Asm.Label (read_site_label idx))
      | _, _ -> ());
      emit item;
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

(* --- the site map --------------------------------------------------------- *)

(* Where every site, patch stub and function sits in one assembled
   image, resolved once from the labels above; every runtime reader
   (counters, patching, hit attribution, store types, function names)
   asks this map instead of the labels. *)

type placed = { site : site; pc : int; stub : int; stub_end : int }

type map = {
  writes : placed array;  (* by slot, so by origin too *)
  fns : (int * string) list;
  (* Open addressing over the exact program-access pcs (0 marks an empty
     cell): 1 + the write type's index at a store (site or stub), -1 at
     a read site. *)
  keys : int array;
  codes : int array;
  (* Sorted by pc: the labels that open each write and read site's
     check, and the starts of the function ranges. *)
  w_at : (int * placed) array;
  r_at : (int * read_site) array;
  f_at : (int * string option) array;
}

(* Greatest index with [key a.(i) <= x] in an array sorted by [key],
   or -1. *)
let last_le key a x =
  let lo = ref (-1) and hi = ref (Array.length a - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if key a.(mid) <= x then lo := mid else hi := mid - 1
  done;
  !lo

(* The cell holding [pc], or the empty cell where it would go. *)
let rec probe keys mask pc i =
  let k = Array.unsafe_get keys i in
  if k = pc || k = 0 then i else probe keys mask pc ((i + 1) land mask)

let cell keys pc =
  let mask = Array.length keys - 1 in
  probe keys mask pc ((((pc lsr 2) * 0x9E3779B1) lsr 12) land mask)

let by_pc l = Array.of_list (List.stable_sort (fun (x, _) (y, _) -> compare x y) l)

let map (plan : t) (image : Assembler.image) =
  let addr l = Option.value ~default:(-1) (Assembler.addr_of_label image l) in
  let text = image.Assembler.text and base = image.Assembler.text_base in
  (* A stub closes with the first [ba] back to its site. *)
  let closing first back =
    let rec go k =
      if k >= Array.length text then -1
      else
        match text.(k) with
        | Insn.Branch { cond = Cond.A; target = Insn.Abs a } when a = back ->
          base + (4 * k)
        | _ -> go (k + 1)
    in
    if first < 0 || back < 0 then -1 else go ((first - base) / 4)
  in
  let writes =
    List.map
      (fun s ->
        let stub = addr (patch_label s.origin) in
        { site = s; pc = addr (site_label s.origin); stub;
          stub_end = closing stub (addr (back_label s.origin)) })
      plan.sites
  in
  let w_at =
    by_pc
      (List.concat_map
         (fun p -> List.filter (fun (a, _) -> a >= 0) [ (p.pc, p); (p.stub, p) ])
         writes)
  and r_at =
    by_pc
      (List.filter_map
         (fun r ->
           let a = addr (read_site_label r.r_origin) in
           if a < 0 then None else Some (a, r))
         plan.read_sites)
  in
  let size = ref 1 in
  while !size < 2 * (Array.length w_at + Array.length r_at) do
    size := 2 * !size
  done;
  let keys = Array.make !size 0 and codes = Array.make !size 0 in
  let add code (pc, _) =
    let i = cell keys pc in
    keys.(i) <- pc;
    codes.(i) <- code
  in
  Array.iter (fun ((_, p) as e) -> add (1 + Write_type.index p.site.write_type) e) w_at;
  Array.iter (add (-1)) r_at;
  (* The first name at a shared start wins.  A patch stub sits after
     every function yet belongs to its site's function, so it opens a
     range of its own; the stable sort lets a stub's start beat the
     end of the stub before it, and that end beat a function start. *)
  let fns =
    List.rev
      (List.fold_left
         (fun acc f ->
           let a = addr f in
           if a < 0 || List.mem_assoc a acc then acc else (a, f) :: acc)
         [] ("_start" :: plan.functions))
  in
  let starts = by_pc (List.map (fun (a, f) -> (a, Some f)) fns) in
  let after_stub p =
    let i = last_le fst starts (p.stub_end + 4) in
    (p.stub_end + 4, if i < 0 then None else snd starts.(i))
  in
  let stubs = List.filter (fun p -> p.stub_end >= 0) writes in
  let f_at =
    by_pc
      (Array.to_list starts
      @ List.map after_stub stubs
      @ List.map (fun p -> (p.stub, Some p.site.fn)) stubs)
  in
  { writes = Array.of_list writes; fns; keys; codes; w_at; r_at; f_at }

let write_sites m = m.writes
let read_sites m = m.r_at
let functions m = m.fns

let find_site m origin =
  let i = last_le (fun p -> p.site.origin) m.writes origin in
  if i >= 0 && m.writes.(i).site.origin = origin then Some m.writes.(i) else None

(* A write check follows its site label (or runs inside its stub), so
   its trap pc belongs to the greatest label at or below it; a read
   check precedes its label, so to the least label at or above it. *)
let write_site_at m pc =
  let i = last_le fst m.w_at pc in
  if i < 0 then None else Some (snd m.w_at.(i))

let read_site_at m pc =
  let i = last_le fst m.r_at (pc - 1) + 1 in
  if i >= Array.length m.r_at then None else Some (snd m.r_at.(i))

let some_type = Array.of_list (List.map Option.some Write_type.all)

let store_type m pc =
  let code = m.codes.(cell m.keys pc) in
  if code > 0 then some_type.(code - 1) else None

let load_site m pc = m.codes.(cell m.keys pc) < 0

let function_at m pc =
  let i = last_le fst m.f_at pc in
  if i < 0 then None else snd m.f_at.(i)
