open Sparc
open Machine

(* The monitored region service runtime (§2).

   Owns the OCaml mirrors of the in-memory structures (segmented
   bitmap, hash table, shadow stack), installs the trap handlers the
   check code raises, and implements the service interface:
   CreateMonitoredRegion / DeleteMonitoredRegion / NotificationCallBack
   plus PreMonitor / PostMonitor (§4.2) and the dynamic re-insertion of
   eliminated checks via Kessler-style patches (§4). *)

type access = Write | Read

type hit = { addr : int; pc : int; region : Region.t; access : access }

type counters = {
  mutable user_hits : int;
  mutable read_hits : int;
  mutable internal_hits : int;
  mutable loop_entries : int;
  mutable loop_triggers : int;
  mutable patches_inserted : int;
  mutable violations : int;
}

let reset_counters (c : counters) =
  c.user_hits <- 0;
  c.read_hits <- 0;
  c.internal_hits <- 0;
  c.loop_entries <- 0;
  c.loop_triggers <- 0;
  c.patches_inserted <- 0;
  c.violations <- 0

type t = {
  layout : Layout.t;
  plan : Instrument.t;
  image : Assembler.image;
  cpu : Cpu.t;
  bitmap : Segbitmap.t;
  mutable regions : Region.set;
  mutable enabled : bool;
  mutable callback : (hit -> unit) option;
  (* Passive hit observers (heatmaps, tooling): all run after the
     user callback, never replace it, and skip hits while the machine's
     observers are paused ({!Cpu.without_observers}). *)
  mutable observers : (hit -> unit) list;
  site_addr : (int, int) Hashtbl.t;     (* origin -> text address *)
  patch_addr : (int, int) Hashtbl.t;
  original : (int, Insn.t) Hashtbl.t;
  loops : (int, Loopopt.loop_plan) Hashtbl.t;
  mutable alias_regions : ((int * int) * Region.t list) list;
      (* (loop id, %fp) -> internal regions created at loop entry *)
  mutable hash_bump : int;
  counters : counters;
  entries_by_loop : (int, int) Hashtbl.t;
  loop_check_cycles : int;
  pseudo_home : string -> [ `Global of int | `Local of string * int ] option;
  telemetry : Telemetry.t option;
  audit : Audit.t option;
  (* Hit → site attribution maps, built once at install time from the
     resolved site/patch/read-site labels: parallel arrays sorted by
     label address.  A write hit's trap pc lies inside the check
     sequence that follows its site label (or inside its patch stub), so
     the owning site is the one with the greatest label address <= pc; a
     read check precedes its label, so a read hit belongs to the site
     with the least label address >= pc. *)
  mutable w_attr_addrs : int array;
  mutable w_attr_slots : int array;
  mutable w_attr_types : int array;
  mutable r_attr_addrs : int array;
  mutable r_attr_slots : int array;
  mutable r_attr_types : int array;
}

let g6 = Reg.g 6

let counters t = t.counters

(* --- telemetry glue ----------------------------------------------------------- *)

let tel_incr t c =
  match t.telemetry with Some tel -> Telemetry.incr tel c | None -> ()

(* --- audit glue ---------------------------------------------------------------- *)

let aud t f = match t.audit with Some a -> f a | None -> ()

let aud_patch t kind ~why origin =
  aud t (fun a ->
      Audit.patch a ~kind ~pseudo:why ~origin ~insn:(Cpu.instr_count t.cpu))

let aud_region t kind ~why (r : Region.t) =
  aud t (fun a ->
      Audit.region a ~kind ~lo:r.Region.lo ~hi:r.Region.hi ~why
        ~insn:(Cpu.instr_count t.cpu))

(* Greatest index with [addrs.(i) <= pc]. *)
let attr_last_le addrs pc =
  let n = Array.length addrs in
  if n = 0 || pc < addrs.(0) then None
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if addrs.(mid) <= pc then lo := mid else hi := mid - 1
    done;
    Some !lo
  end

(* Least index with [addrs.(i) >= pc]. *)
let attr_first_ge addrs pc =
  let n = Array.length addrs in
  if n = 0 || pc > addrs.(n - 1) then None
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if addrs.(mid) >= pc then hi := mid else lo := mid + 1
    done;
    Some !lo
  end

(* Attribute a monitor hit to its check site, bump the per-site hit
   cell, and append a trace event.  When the pc matches no known site
   label the hit is still conserved under [Unattributed_hits]. *)
let tel_hit t cpu ~(access : access) ~addr ~pc (region : Region.t option) =
  match t.telemetry with
  | None -> ()
  | Some tel ->
    if Telemetry.enabled tel then begin
      let write_type =
        match access with
        | Write -> (
          match attr_last_le t.w_attr_addrs pc with
          | Some i ->
            Telemetry.bump_site_hit tel t.w_attr_slots.(i);
            Telemetry.write_type_name t.w_attr_types.(i)
          | None ->
            Telemetry.incr tel Telemetry.Unattributed_hits;
            "")
        | Read -> (
          match attr_first_ge t.r_attr_addrs pc with
          | Some i ->
            Telemetry.bump_read_site_hit tel t.r_attr_slots.(i);
            Telemetry.write_type_name t.r_attr_types.(i)
          | None ->
            Telemetry.incr tel Telemetry.Unattributed_hits;
            "")
      in
      let lo, hi, kind =
        match region with
        | Some r ->
          ( r.Region.lo,
            r.Region.hi,
            match r.Region.kind with
            | Region.User -> "user"
            | Region.Internal -> "internal" )
        | None -> (0, 0, "")
      in
      Telemetry.record_event tel
        {
          Telemetry.ev_pc = pc;
          ev_addr = addr;
          ev_region_lo = lo;
          ev_region_hi = hi;
          ev_region_kind = kind;
          ev_access = (match access with Write -> Telemetry.Write | Read -> Telemetry.Read);
          ev_write_type = write_type;
          ev_insn = Cpu.instr_count cpu;
        }
    end

let loop_entry_count t id =
  Option.value ~default:0 (Hashtbl.find_opt t.entries_by_loop id)

let regions t = t.regions

let pseudo_home_of_symtab symtab pseudo =
  match String.index_opt pseudo '.' with
  | None -> (
    match Symtab.lookup symtab pseudo with
    | Some { Symtab.location = Symtab.Absolute a; _ } -> Some (`Global a)
    | Some _ | None -> None)
  | Some dot -> (
    let fname = String.sub pseudo 0 dot in
    let var = String.sub pseudo (dot + 1) (String.length pseudo - dot - 1) in
    match Symtab.lookup symtab ~func:fname var with
    | Some { Symtab.location = Symtab.Fp_offset off; _ } ->
      Some (`Local (fname, off))
    | Some _ | None -> None)

(* --- bexpr evaluation against live machine state ----------------------------- *)

exception Unresolved of string

exception Hardware_capacity of int
(* Raised by create_region under the Hardware_watch strategy when the
   processor's watchpoint registers are exhausted (§1). *)

let rec eval_bexpr t (e : Ir.Bounds.bexpr) : int =
  match e with
  | Ir.Bounds.Bconst c -> c
  | Ir.Bounds.Blab (l, o) -> (
    match Assembler.addr_of_label t.image l with
    | Some a -> Word.add a o
    | None -> raise (Unresolved l))
  | Ir.Bounds.Bvar v -> (
    match v.Ir.Ssa.name with
    | Ir.Tac.Machine r -> Cpu.get t.cpu r
    | Ir.Tac.Pseudo p -> (
      match t.pseudo_home p with
      | Some (`Global a) -> Memory.read_word (Cpu.mem t.cpu) a
      | Some (`Local (_, off)) ->
        Memory.read_word (Cpu.mem t.cpu) (Word.add (Cpu.get t.cpu Reg.fp) off)
      | None -> raise (Unresolved p)))
  | Ir.Bounds.Badd (a, b) -> Word.add (eval_bexpr t a) (eval_bexpr t b)
  | Ir.Bounds.Bsub (a, b) -> Word.sub (eval_bexpr t a) (eval_bexpr t b)
  | Ir.Bounds.Bmul (a, c) -> Word.mul (eval_bexpr t a) c
  | Ir.Bounds.Bshl (a, c) -> Word.sll (eval_bexpr t a) c

(* --- hash table structure (Hash_table strategy) ------------------------------- *)

let hash_bucket t addr =
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
  let h = Word.to_unsigned (Word.umul (Word.to_unsigned addr lsr 2) 0x9E3779B1) in
  h lsr (32 - log2 t.layout.Layout.hash_buckets)

let hash_add_region t (r : Region.t) =
  let mem = Cpu.mem t.cpu in
  let rec go addr =
    if addr <= r.hi then begin
      let b = t.layout.Layout.hash_base + (4 * hash_bucket t addr) in
      let node = t.hash_bump in
      t.hash_bump <- t.hash_bump + 12;
      Memory.write_word mem node r.lo;
      Memory.write_word mem (node + 4) r.hi;
      Memory.write_word mem (node + 8) (Memory.read_word mem b);
      Memory.write_word mem b node;
      go (addr + 4)
    end
  in
  go r.lo

let hash_remove_region t (r : Region.t) =
  let mem = Cpu.mem t.cpu in
  let rec go addr =
    if addr <= r.hi then begin
      let b = t.layout.Layout.hash_base + (4 * hash_bucket t addr) in
      (* Unlink the first node with matching bounds. *)
      let rec unlink prev node =
        if node = 0 then ()
        else begin
          let lo = Word.to_unsigned (Memory.read_word mem node) in
          let hi = Word.to_unsigned (Memory.read_word mem (node + 4)) in
          let next = Memory.read_word mem (node + 8) in
          if lo = r.lo && hi = r.hi then Memory.write_word mem prev next
          else unlink (node + 8) next
        end
      in
      unlink b (Memory.read_word mem b);
      go (addr + 4)
    end
  in
  go r.lo

(* --- segment cache maintenance ------------------------------------------------- *)

let invalidate_caches t =
  if Strategy.uses_segment_caches t.plan.Instrument.options.strategy then
    List.iter
      (fun wt -> Cpu.set t.cpu (Write_type.cache_reg wt) (-1))
      Write_type.all

(* --- patches (Kessler fast breakpoints, §4) ------------------------------------ *)

(* An origin's check is inserted iff its site no longer holds the
   original store.  The state lives in the text, not in a host-side
   table, so a rollback (which restores text) restores it too: a
   replayed loop pre-header then re-patches exactly as the recorded run
   did. *)
let check_inserted t origin =
  match Hashtbl.find_opt t.site_addr origin, Hashtbl.find_opt t.original origin with
  | Some site, Some insn -> Cpu.fetch_at t.cpu site <> insn
  | _, _ -> false

let insert_check ?(why = "") t origin =
  if not (check_inserted t origin) then begin
    match Hashtbl.find_opt t.site_addr origin, Hashtbl.find_opt t.patch_addr origin with
    | Some site, Some patch ->
      t.counters.patches_inserted <- t.counters.patches_inserted + 1;
      tel_incr t Telemetry.Patches_inserted;
      aud_patch t Audit.Patch_inserted ~why origin;
      Cpu.patch t.cpu site (Insn.Branch { cond = Cond.A; target = Insn.Abs patch })
    | _, _ -> ()
  end

let remove_check ?(why = "") t origin =
  if check_inserted t origin then begin
    match Hashtbl.find_opt t.site_addr origin, Hashtbl.find_opt t.original origin with
    | Some site, Some insn ->
      tel_incr t Telemetry.Patches_removed;
      aud_patch t Audit.Patch_removed ~why origin;
      Cpu.patch t.cpu site insn
    | _, _ -> ()
  end

(* Snapshot gauges: occupancy numbers whose current value (not a sum of
   bumps) is the interesting quantity; written unconditionally at report
   time via {!Telemetry.set}. *)
let record_gauges t =
  match t.telemetry with
  | None -> ()
  | Some tel ->
    Telemetry.set tel Telemetry.Seg_words_monitored
      (Segbitmap.monitored_words t.bitmap);
    Telemetry.set tel Telemetry.Seg_arena_bytes (Segbitmap.space_bytes t.bitmap)

(* --- the service interface ------------------------------------------------------ *)

let create_region ?(why = "user") t region =
  (match t.plan.Instrument.options.strategy with
  | Strategy.Hardware_watch n ->
    let words set =
      List.fold_left (fun a r -> a + (Region.size_bytes r / 4)) 0 (Region.elements set)
    in
    if words t.regions + (Region.size_bytes region / 4) > n then
      raise (Hardware_capacity n)
  | _ -> ());
  t.regions <- Region.add t.regions region;
  Segbitmap.add_region t.bitmap region;
  tel_incr t Telemetry.Regions_created;
  aud_region t Audit.Region_created ~why region;
  if t.plan.Instrument.options.strategy = Strategy.Hash_table then
    hash_add_region t region;
  invalidate_caches t

let delete_region ?(why = "user") t region =
  t.regions <- Region.remove t.regions region;
  Segbitmap.remove_region t.bitmap region;
  tel_incr t Telemetry.Regions_deleted;
  aud_region t Audit.Region_deleted ~why region;
  if t.plan.Instrument.options.strategy = Strategy.Hash_table then
    hash_remove_region t region

let set_callback t f = t.callback <- Some f

let add_hit_observer t f = t.observers <- t.observers @ [ f ]

let enable t =
  t.enabled <- true;
  Cpu.set t.cpu g6 0

let disable t =
  t.enabled <- false;
  Cpu.set t.cpu g6 1

let pre_monitor t pseudo =
  List.iter
    (fun (p, origins) ->
      if String.equal p pseudo then List.iter (insert_check ~why:pseudo t) origins)
    t.plan.Instrument.sites_by_pseudo

let post_monitor t pseudo =
  List.iter
    (fun (p, origins) ->
      if String.equal p pseudo then List.iter (remove_check ~why:pseudo t) origins)
    t.plan.Instrument.sites_by_pseudo

(* --- trap handlers ---------------------------------------------------------------- *)

let on_hit ?(access = Write) t cpu =
  let addr = Word.to_unsigned (Cpu.get cpu (Reg.g 5)) in
  (* Attribute the hit to the checked instruction: for inline checks
     that is just behind the trap; call-based checks run with the
     check-in-progress flag raised and the call site in their %i7. *)
  let pc =
    if Cpu.get cpu (Reg.g 7) <> 0 then Cpu.get cpu Reg.i7 else Cpu.pc cpu - 4
  in
  match Region.find_containing t.regions addr with
  | Some ({ Region.kind = Region.User; _ } as region) ->
    t.counters.user_hits <- t.counters.user_hits + 1;
    if access = Read then t.counters.read_hits <- t.counters.read_hits + 1;
    tel_incr t Telemetry.User_hits;
    if access = Read then tel_incr t Telemetry.Read_hits;
    tel_hit t cpu ~access ~addr ~pc (Some region);
    let h = { addr; pc; region; access } in
    (match t.callback with Some f -> f h | None -> ());
    if Cpu.observing cpu then List.iter (fun f -> f h) t.observers
  | Some ({ Region.kind = Region.Internal; _ } as region) ->
    t.counters.internal_hits <- t.counters.internal_hits + 1;
    tel_incr t Telemetry.Internal_hits;
    tel_hit t cpu ~access ~addr ~pc (Some region);
    (* An alias home changed: conservatively re-insert every check the
       region was protecting. *)
    Hashtbl.iter
      (fun _ (p : Loopopt.loop_plan) ->
        if
          List.exists
            (fun (key, rs) ->
              fst key = p.loop_id && List.exists (Region.equal region) rs)
            t.alias_regions
        then
          List.iter
            (insert_check ~why:("alias:" ^ string_of_int p.loop_id) t)
            p.eliminated)
      t.loops
  | None ->
    (* Stale bitmap bit cannot happen: bits are only set by regions. *)
    ()

let loop_of_trap t cpu = Hashtbl.find_opt t.loops (Word.to_unsigned (Cpu.get cpu (Reg.g 5)))

let on_loop_entry t cpu =
  t.counters.loop_entries <- t.counters.loop_entries + 1;
  tel_incr t Telemetry.Loop_entries;
  (let id = Word.to_unsigned (Cpu.get cpu (Reg.g 5)) in
   Hashtbl.replace t.entries_by_loop id
     (1 + Option.value ~default:0 (Hashtbl.find_opt t.entries_by_loop id)));
  (* Model the pre-header check as inline code rather than a full trap:
     refund the trap cost beyond the modelled check cost. *)
  match loop_of_trap t cpu with
  | None -> ()
  | Some plan ->
    (* Charge the modelled inline cost instead of the full trap cost. *)
    Cpu.add_cycles cpu
      (5 + (t.loop_check_cycles * List.length plan.checks)
      - (Cpu.config cpu).Cpu.trap_cycles);
    let triggered =
      List.exists
        (fun (c : Loopopt.check) ->
          try
            match c with
            | Loopopt.Inv { expr; width; _ } ->
              let a = Word.to_unsigned (eval_bexpr t expr) in
              Region.intersects_range t.regions ~lo:a
                ~hi:(a + Insn.width_bytes width - 1)
            | Loopopt.Rng { lo; hi; width; _ } ->
              let lo = Word.to_unsigned (eval_bexpr t lo) in
              let hi = Word.to_unsigned (eval_bexpr t hi) + Insn.width_bytes width - 1 in
              (* A degenerate (empty-trip) range never triggers. *)
              lo <= hi && Region.intersects_range t.regions ~lo ~hi
          with Unresolved _ -> true)
        plan.checks
    in
    if triggered then begin
      t.counters.loop_triggers <- t.counters.loop_triggers + 1;
      tel_incr t Telemetry.Loop_triggers;
      List.iter
        (insert_check ~why:("loop:" ^ string_of_int plan.loop_id) t)
        plan.eliminated
    end;
    if t.plan.Instrument.options.check_aliases && plan.alias_pseudos <> [] then begin
      let fp = Cpu.get cpu Reg.fp in
      let rs =
        List.filter_map
          (fun p ->
            match t.pseudo_home p with
            | Some (`Global a) ->
              Some (Region.v ~kind:Region.Internal ~addr:a ~size_bytes:4 ())
            | Some (`Local (_, off)) ->
              Some
                (Region.v ~kind:Region.Internal ~addr:(Word.add fp off)
                   ~size_bytes:4 ())
            | None -> None)
          plan.alias_pseudos
      in
      let rs =
        List.filter_map
          (fun r ->
            try
              create_region ~why:"loop-preheader" t r;
              Some r
            with Region.Invalid _ -> None)
          rs
      in
      t.alias_regions <- ((plan.loop_id, fp), rs) :: t.alias_regions
    end

let on_loop_exit t cpu =
  match loop_of_trap t cpu with
  | None -> ()
  | Some plan ->
    let fp = Cpu.get cpu Reg.fp in
    let key = (plan.loop_id, fp) in
    (match List.assoc_opt key t.alias_regions with
    | Some rs ->
      List.iter
        (fun r ->
          try delete_region ~why:"loop-exit" t r with Region.Invalid _ -> ())
        rs;
      t.alias_regions <- List.remove_assoc key t.alias_regions
    | None -> ());
    Cpu.add_cycles cpu (4 - (Cpu.config cpu).Cpu.trap_cycles)

let on_violation t cpu =
  t.counters.violations <- t.counters.violations + 1;
  tel_incr t Telemetry.Violations;
  ignore cpu

(* --- installation -------------------------------------------------------------------- *)

let install ?(protect_self = false) ?telemetry ?audit ~(plan : Instrument.t)
    ~(image : Assembler.image) ~symtab cpu =
  let layout = plan.Instrument.options.layout in
  let t =
    {
      layout;
      plan;
      image;
      cpu;
      bitmap = Segbitmap.create ?telemetry layout (Cpu.mem cpu);
      regions = Region.empty;
      enabled = false;
      callback = None;
      observers = [];
      site_addr = Hashtbl.create 256;
      patch_addr = Hashtbl.create 64;
      original = Hashtbl.create 64;
      loops = Hashtbl.create 16;
      alias_regions = [];
      hash_bump = layout.Layout.hash_base + (4 * layout.Layout.hash_buckets);
      entries_by_loop = Hashtbl.create 16;
      counters =
        {
          user_hits = 0;
          read_hits = 0;
          internal_hits = 0;
          loop_entries = 0;
          loop_triggers = 0;
          patches_inserted = 0;
          violations = 0;
        };
      loop_check_cycles = 12;
      pseudo_home = (fun p -> pseudo_home_of_symtab symtab p);
      telemetry;
      audit;
      w_attr_addrs = [||];
      w_attr_slots = [||];
      w_attr_types = [||];
      r_attr_addrs = [||];
      r_attr_slots = [||];
      r_attr_types = [||];
    }
  in
  (* Resolve site/patch labels and squirrel away original stores. *)
  List.iter
    (fun (s : Instrument.site) ->
      (match Assembler.addr_of_label image (Instrument.site_label s.origin) with
      | Some a -> Hashtbl.replace t.site_addr s.origin a
      | None -> ());
      (match Assembler.addr_of_label image (Instrument.patch_label s.origin) with
      | Some a -> Hashtbl.replace t.patch_addr s.origin a
      | None -> ());
      Hashtbl.replace t.original s.origin s.insn)
    plan.Instrument.sites;
  List.iter
    (fun (p : Loopopt.loop_plan) -> Hashtbl.replace t.loops p.loop_id p)
    plan.Instrument.loop_plans;
  (* Build the hit → site attribution maps (sorted label-address arrays;
     a patched-out site's check executes in its patch stub, so both the
     site label and the patch label map to the same slot). *)
  (match telemetry with
  | None -> ()
  | Some _ ->
    let wentries = ref [] in
    List.iter
      (fun (s : Instrument.site) ->
        let wt = Write_type.index s.Instrument.write_type in
        (match Hashtbl.find_opt t.site_addr s.Instrument.origin with
        | Some a -> wentries := (a, s.Instrument.slot, wt) :: !wentries
        | None -> ());
        match Hashtbl.find_opt t.patch_addr s.Instrument.origin with
        | Some a -> wentries := (a, s.Instrument.slot, wt) :: !wentries
        | None -> ())
      plan.Instrument.sites;
    let w = Arr.of_list (List.sort compare !wentries) in
    t.w_attr_addrs <- Array.map (fun (a, _, _) -> a) w;
    t.w_attr_slots <- Array.map (fun (_, s, _) -> s) w;
    t.w_attr_types <- Array.map (fun (_, _, wt) -> wt) w;
    let rentries = ref [] in
    List.iter
      (fun (r : Instrument.read_site) ->
        match
          Assembler.addr_of_label image
            (Instrument.read_site_label r.Instrument.r_origin)
        with
        | Some a ->
          rentries :=
            (a, r.Instrument.r_slot, Write_type.index r.Instrument.r_write_type)
            :: !rentries
        | None -> ())
      plan.Instrument.read_sites;
    let r = Arr.of_list (List.sort compare !rentries) in
    t.r_attr_addrs <- Array.map (fun (a, _, _) -> a) r;
    t.r_attr_slots <- Array.map (fun (_, s, _) -> s) r;
    t.r_attr_types <- Array.map (fun (_, _, wt) -> wt) r);
  (* §2.1: the MRS protects the integrity of its own structures with
     internal monitored regions (the shadow stack and the hash-table
     bucket array; the segment table itself is too large to cover and a
     corruption there is caught by the test oracle instead). *)
  if protect_self then begin
    create_region ~why:"mrs-self" t
      (Region.v ~kind:Region.Internal ~addr:layout.Layout.shadow_base
         ~size_bytes:4096 ());
    create_region ~why:"mrs-self" t
      (Region.v ~kind:Region.Internal ~addr:layout.Layout.hash_base
         ~size_bytes:(4 * layout.Layout.hash_buckets) ())
  end;
  Cpu.on_trap cpu Traps.monitor_hit (fun cpu -> on_hit t cpu);
  Cpu.on_trap cpu Traps.read_hit (fun cpu -> on_hit ~access:Read t cpu);
  (* The trap-per-write baseline: the check runs "in the kernel"; the
     context switch into the debugger costs far more than the trap
     instruction itself (§1). *)
  Cpu.on_trap cpu Traps.trap_check (fun cpu ->
      Cpu.add_cycles cpu 400;
      on_hit t cpu);
  (* Hardware watchpoint registers: the comparison is free, done by the
     simulated processor on every store. *)
  (match plan.Instrument.options.strategy with
  | Strategy.Hardware_watch _ ->
    Cpu.set_store_hook cpu (fun cpu ~addr ~width ->
        if t.enabled then begin
          let bytes = Insn.width_bytes width in
          let rec covered a =
            if a >= addr + bytes then None
            else
              match Region.find_containing t.regions a with
              | Some r -> Some r
              | None -> covered (a + 1)
          in
          match covered addr with
          | Some ({ Region.kind = Region.User; _ } as region) ->
            t.counters.user_hits <- t.counters.user_hits + 1;
            tel_incr t Telemetry.User_hits;
            (* The watchpoint comparison fires on the store itself, whose
               pc is exactly its site label's address. *)
            tel_hit t cpu ~access:Write ~addr:(Word.to_unsigned addr)
              ~pc:(Cpu.pc cpu) (Some region);
            let h =
              { addr = Word.to_unsigned addr; pc = Cpu.pc cpu;
                region; access = Write }
            in
            (match t.callback with Some f -> f h | None -> ());
            if Cpu.observing cpu then List.iter (fun f -> f h) t.observers
          | Some _ | None -> ()
        end)
  | _ -> ());
  Cpu.on_trap cpu Traps.loop_entry (on_loop_entry t);
  Cpu.on_trap cpu Traps.loop_exit (on_loop_exit t);
  Cpu.on_trap cpu Traps.control_violation (on_violation t);
  (* Reserved-register initialization. *)
  Cpu.set cpu g6 1;
  (match plan.Instrument.options.strategy with
  | Strategy.Bitmap_inline_registers ->
    Cpu.set cpu (Reg.g 4) layout.Layout.table_base
  | _ -> ());
  invalidate_caches t;
  t
