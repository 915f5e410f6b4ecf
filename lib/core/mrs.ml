open Sparc
open Machine

(* The monitored region service runtime (§2).

   Writes the in-memory structures (segmented bitmap, hash table,
   region table), installs the trap handlers the check code raises,
   and implements the service interface:
   CreateMonitoredRegion / DeleteMonitoredRegion / NotificationCallBack
   plus PreMonitor / PostMonitor (§4.2) and the dynamic re-insertion of
   eliminated checks via Kessler-style patches (§4). *)

type access = Write | Read

type hit = { addr : int; pc : int; region : Region.t; access : access }

type t = {
  layout : Layout.t;
  plan : Instrument.t;
  image : Assembler.image;
  sites : Instrument.map;
  cpu : Cpu.t;
  bitmap : Segbitmap.t;
  mutable callback : (hit -> unit) option;
  (* Passive hit observers (heatmaps, tooling): all run after the
     user callback and never replace it. *)
  mutable observers : (hit -> unit) list;
  loops : (int, Loopopt.loop_plan) Hashtbl.t;
  loop_check_cycles : int;
  pseudo_home : string -> [ `Global of int | `Local of string * int ] option;
  telemetry : Telemetry.t;
  audit : Audit.t;
}

let g6 = Reg.g 6

(* --- audit glue ---------------------------------------------------------------- *)

(* Lifecycle events follow the registry's gate, whatever journal the
   caller passed, so a replayed leg journals nothing. *)
let aud_patch t kind ~why origin =
  if Telemetry.enabled t.telemetry then
    Audit.patch t.audit ~kind ~pseudo:why ~origin ~insn:(Cpu.instr_count t.cpu)

let aud_region t kind ~why (r : Region.t) =
  if Telemetry.enabled t.telemetry then
    Audit.region t.audit ~kind ~lo:r.Region.lo ~hi:r.Region.hi ~why
      ~insn:(Cpu.instr_count t.cpu)

(* Attribute a monitor hit to its check site through the site map,
   bump the per-site hit cell, and append a trace event.  When the pc
   matches no known site the hit is still conserved under
   [Unattributed_hits]. *)
let tel_hit t cpu ~(access : access) ~addr ~pc (region : Region.t) =
  let tel = t.telemetry in
  if Telemetry.enabled tel then begin
    let write_type =
      match access with
      | Write -> (
        match Instrument.write_site_at t.sites pc with
        | Some p ->
          Telemetry.bump_site_hit tel p.site.slot;
          Write_type.to_string p.site.write_type
        | None ->
          Telemetry.incr tel Telemetry.Unattributed_hits;
          "")
      | Read -> (
        match Instrument.read_site_at t.sites pc with
        | Some r ->
          Telemetry.bump_read_site_hit tel r.r_slot;
          Write_type.to_string r.r_write_type
        | None ->
          Telemetry.incr tel Telemetry.Unattributed_hits;
          "")
    in
    Telemetry.record_event tel
      {
        Telemetry.ev_pc = pc;
        ev_addr = addr;
        ev_region_lo = region.Region.lo;
        ev_region_hi = region.Region.hi;
        ev_region_kind =
          (match region.Region.kind with
          | Region.User -> "user"
          | Region.Internal -> "internal");
        ev_access = (match access with Write -> Telemetry.Write | Read -> Telemetry.Read);
        ev_write_type = write_type;
        ev_insn = Cpu.instr_count cpu;
      }
  end

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

(* Call [f] on the bucket head of every word of [r]. *)
let iter_buckets t (r : Region.t) f =
  let rec go addr =
    if addr <= r.hi then begin
      f (t.layout.Layout.hash_base + (4 * hash_bucket t addr));
      go (addr + 4)
    end
  in
  go r.lo

(* Nodes are bump-allocated past the bucket array; the bump count lives
   in simulated memory ({!Layout.hash_used}), so a rollback rewinds it. *)
let hash_add_region t (r : Region.t) =
  let mem = Cpu.mem t.cpu in
  iter_buckets t r (fun b ->
      let used = Word.to_unsigned (Memory.read_word mem Layout.hash_used) in
      let node = t.layout.Layout.hash_base + (4 * t.layout.Layout.hash_buckets) + used in
      Memory.write_word mem Layout.hash_used (used + 12);
      Memory.write_word mem node r.lo;
      Memory.write_word mem (node + 4) r.hi;
      Memory.write_word mem (node + 8) (Memory.read_word mem b);
      Memory.write_word mem b node)

(* Unlink, per word, the first node with matching bounds. *)
let hash_remove_region t (r : Region.t) =
  let mem = Cpu.mem t.cpu in
  let field node k = Word.to_unsigned (Memory.read_word mem (node + (4 * k))) in
  let rec unlink prev node =
    if node <> 0 then
      if field node 0 = r.lo && field node 1 = r.hi then
        Memory.write_word mem prev (field node 2)
      else unlink (node + 8) (field node 2)
  in
  iter_buckets t r (fun b -> unlink b (field b 0))

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
  match Instrument.find_site t.sites origin with
  | Some p -> Cpu.fetch_at t.cpu p.pc <> p.site.insn
  | None -> false

(* Patch in the check for one eliminated site (by origin).  [why]
   labels the audit event: the pseudo name for PreMonitor patches,
   ["loop:N"] / ["alias:N"] for dynamic loop re-insertion. *)
let insert_check ?(why = "") t origin =
  if not (check_inserted t origin) then begin
    match Instrument.find_site t.sites origin with
    | Some p when p.stub >= 0 ->
      Telemetry.incr t.telemetry Telemetry.Patches_inserted;
      aud_patch t Audit.Patch_inserted ~why origin;
      Cpu.patch t.cpu p.pc (Insn.Branch { cond = Cond.A; target = Insn.Abs p.stub })
    | Some _ | None -> ()
  end

let remove_check ?(why = "") t origin =
  if check_inserted t origin then begin
    match Instrument.find_site t.sites origin with
    | Some p ->
      Telemetry.incr t.telemetry Telemetry.Patches_removed;
      aud_patch t Audit.Patch_removed ~why origin;
      Cpu.patch t.cpu p.pc p.site.insn
    | None -> ()
  end

(* Snapshot gauges: occupancy numbers whose current value (not a sum of
   bumps) is the interesting quantity; written unconditionally at report
   time via {!Telemetry.set}. *)
let record_gauges t =
  Telemetry.set t.telemetry Telemetry.Seg_words_monitored
    (Segbitmap.monitored_words t.bitmap);
  Telemetry.set t.telemetry Telemetry.Seg_arena_bytes
    (Segbitmap.space_bytes t.bitmap)

(* --- the service interface ------------------------------------------------------ *)

let add_region ~why ?owner t region =
  let mem = Cpu.mem t.cpu in
  (match t.plan.Instrument.options.strategy with
  | Strategy.Hardware_watch n ->
    let words = ref (Region.size_bytes region / 4) in
    Region.iter mem (fun r -> words := !words + (Region.size_bytes r / 4));
    if !words > n then raise (Hardware_capacity n)
  | _ -> ());
  Region.add mem ?owner region;
  Segbitmap.add_region t.bitmap region;
  Telemetry.incr t.telemetry Telemetry.Regions_created;
  aud_region t Audit.Region_created ~why region;
  if t.plan.Instrument.options.strategy = Strategy.Hash_table then
    hash_add_region t region;
  invalidate_caches t

let create_region ?(why = "user") t region = add_region ~why t region

let delete_region ?(why = "user") t region =
  Region.remove (Cpu.mem t.cpu) region;
  Segbitmap.remove_region t.bitmap region;
  Telemetry.incr t.telemetry Telemetry.Regions_deleted;
  aud_region t Audit.Region_deleted ~why region;
  if t.plan.Instrument.options.strategy = Strategy.Hash_table then
    hash_remove_region t region

let set_callback t f = t.callback <- Some f

let add_hit_observer t f = t.observers <- t.observers @ [ f ]

(* The disabled flag lives only in [%g6], which rollback restores; the
   inline checks and the hardware-watch hook both read it there. *)
let enable t = Cpu.set t.cpu g6 0
let disable t = Cpu.set t.cpu g6 1

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

(* Deliver a hit on a user region: count it, attribute it, then tell the
   callback and the observers — unless the hit is replayed, which
   notifies no one. *)
let user_hit t cpu ~access ~addr ~pc region =
  Telemetry.incr t.telemetry Telemetry.User_hits;
  if access = Read then Telemetry.incr t.telemetry Telemetry.Read_hits;
  tel_hit t cpu ~access ~addr ~pc region;
  if Cpu.observing cpu then begin
    let h = { addr; pc; region; access } in
    (match t.callback with Some f -> f h | None -> ());
    List.iter (fun f -> f h) t.observers
  end

let on_hit ?(access = Write) t cpu =
  let addr = Word.to_unsigned (Cpu.get cpu (Reg.g 5)) in
  (* Attribute the hit to the checked instruction: for inline checks
     that is just behind the trap; call-based checks run with the
     check-in-progress flag raised and the call site in their %i7. *)
  let pc =
    if Cpu.get cpu (Reg.g 7) <> 0 then Cpu.get cpu Reg.i7 else Cpu.pc cpu - 4
  in
  match Region.find_containing (Cpu.mem cpu) addr with
  | Some ({ Region.kind = Region.User; _ } as region) ->
    user_hit t cpu ~access ~addr ~pc region
  | Some ({ Region.kind = Region.Internal; _ } as region) -> (
    Telemetry.incr t.telemetry Telemetry.Internal_hits;
    tel_hit t cpu ~access ~addr ~pc region;
    (* An alias home changed: conservatively re-insert every check the
       loop that owns the region eliminated. *)
    match Option.bind (Region.owner_loop (Cpu.mem cpu) region) (Hashtbl.find_opt t.loops) with
    | Some p ->
      List.iter (insert_check ~why:("alias:" ^ string_of_int p.loop_id) t) p.eliminated
    | None -> ())
  | None ->
    (* Stale bitmap bit cannot happen: bits are only set by regions. *)
    ()

let loop_of_trap t cpu = Hashtbl.find_opt t.loops (Word.to_unsigned (Cpu.get cpu (Reg.g 5)))

let on_loop_entry t cpu =
  match loop_of_trap t cpu with
  | None -> ()
  | Some plan ->
    Telemetry.bump_loop_entry t.telemetry plan.loop_id;
    (* Model the pre-header check as inline code rather than a full trap:
       refund the trap cost beyond the modelled check cost. *)
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
              Region.intersects_range (Cpu.mem cpu) ~lo:a
                ~hi:(a + Insn.width_bytes width - 1)
            | Loopopt.Rng { lo; hi; width; _ } ->
              let lo = Word.to_unsigned (eval_bexpr t lo) in
              let hi = Word.to_unsigned (eval_bexpr t hi) + Insn.width_bytes width - 1 in
              (* A degenerate (empty-trip) range never triggers. *)
              lo <= hi && Region.intersects_range (Cpu.mem cpu) ~lo ~hi
          with Unresolved _ -> true)
        plan.checks
    in
    if triggered then begin
      Telemetry.incr t.telemetry Telemetry.Loop_triggers;
      List.iter
        (insert_check ~why:("loop:" ^ string_of_int plan.loop_id) t)
        plan.eliminated
    end;
    if t.plan.Instrument.options.check_aliases then begin
      let fp = Cpu.get cpu Reg.fp in
      let home p =
        match t.pseudo_home p with
        | Some (`Global a) -> Some a
        | Some (`Local (_, off)) -> Some (Word.add fp off)
        | None -> None
      in
      (* A home already in the table (a user region, or an enclosing
         loop's alias region) stays as it is; the refusal is journalled. *)
      List.iter
        (fun addr ->
          let r = Region.v ~kind:Region.Internal ~addr ~size_bytes:4 () in
          try add_region ~why:"loop-preheader" ~owner:(plan.loop_id, fp) t r
          with Region.Invalid _ -> aud_region t Audit.Region_refused ~why:"loop-preheader" r)
        (List.filter_map home plan.alias_pseudos)
    end

let on_loop_exit t cpu =
  match loop_of_trap t cpu with
  | None -> ()
  | Some plan ->
    List.iter
      (delete_region ~why:"loop-exit" t)
      (Region.owned_by (Cpu.mem cpu) ~loop:plan.loop_id ~fp:(Cpu.get cpu Reg.fp));
    Cpu.add_cycles cpu (4 - (Cpu.config cpu).Cpu.trap_cycles)

let on_violation t _cpu =
  Telemetry.incr t.telemetry Telemetry.Violations

(* --- installation -------------------------------------------------------------------- *)

let install ?(protect_self = false) ~telemetry ~audit ~(plan : Instrument.t)
    ~sites ~(image : Assembler.image) ~symtab cpu =
  let layout = plan.Instrument.options.layout in
  let t =
    {
      layout;
      plan;
      image;
      sites;
      cpu;
      bitmap = Segbitmap.create ~telemetry layout (Cpu.mem cpu);
      callback = None;
      observers = [];
      loops = Hashtbl.create 16;
      loop_check_cycles = 12;
      pseudo_home = (fun p -> pseudo_home_of_symtab symtab p);
      telemetry;
      audit;
    }
  in
  List.iter
    (fun (p : Loopopt.loop_plan) -> Hashtbl.replace t.loops p.loop_id p)
    plan.Instrument.loop_plans;
  Telemetry.alloc_loops telemetry
    (1 + List.fold_left (fun n (p : Loopopt.loop_plan) -> max n p.loop_id) 0
           plan.Instrument.loop_plans);
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
        if Cpu.get cpu g6 = 0 then begin
          match
            Region.find_in (Cpu.mem cpu) ~lo:addr
              ~hi:(addr + Insn.width_bytes width - 1)
          with
          | Some ({ Region.kind = Region.User; _ } as region) ->
            (* The watchpoint comparison fires on the store itself, whose
               pc is exactly its site's. *)
            user_hit t cpu ~access:Write ~addr:(Word.to_unsigned addr)
              ~pc:(Cpu.pc cpu) region
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
