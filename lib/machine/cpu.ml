open Sparc

type config = {
  cache_size : int;
  line_bytes : int;
  load_cycles : int;
  store_cycles : int;
  miss_penalty : int;
  mul_cycles : int;
  div_cycles : int;
  trap_cycles : int;
  spill_cycles : int;
  nwindows : int;
}

let default_config =
  {
    cache_size = 64 * 1024;
    line_bytes = 32;
    load_cycles = 1;
    store_cycles = 1;
    miss_penalty = 10;
    mul_cycles = 5;
    div_cycles = 20;
    trap_cycles = 50;
    spill_cycles = 40;
    nwindows = 8;
  }

exception Fault of { pc : int; reason : string }

exception Out_of_fuel of { executed : int }

type t = {
  mem : Memory.t;
  cache : Cache.t;
  win : Windows.t;
  mutable pc : int;
  mutable icc : int;  (* packed {!Cond} flags; see [Cond.pack] *)
  mutable halted : int option;
  mutable ninstrs : int;
  mutable cycles : int;
  mutable nloads : int;
  mutable nstores : int;
  mutable nbranches : int;
  mutable ntraps : int;
  (* Dispatch counters for the observability layer: how many times the
     probe slow path ran and how many hook invocations the memory
     operations performed.  Deliberately *not* part of {!stats} — the
     fuzz harness checks that a probe-free fast run and a probed slow
     run produce identical [stats], and dispatch counts necessarily
     differ between them. *)
  mutable nprobe_dispatches : int;
  mutable nstore_hook_dispatches : int;
  mutable nload_hook_dispatches : int;
  text : Insn.t array;
  text_base : int;
  traps : (int, t -> unit) Hashtbl.t;
  (* Direct-indexed probe table, parallel to [text]: slot [i] holds the
     probes registered for pc [text_base + 4i], in registration order.
     The empty slots all share one physical [ [||] ], so the hot loop's
     fast path is a single array read plus a length test — no hashing,
     no allocation (the seed did a [Hashtbl.find_opt] per step). *)
  probes : (t -> unit) array array;
  out : Buffer.t;
  mutable brk : int;
  config : config;
  (* Store/load observers as dense counted arrays (amortized O(1)
     registration, order-preserving).  [nstore_hooks = 0] is the
     has-no-hooks fast-path test paid on every memory operation. *)
  mutable store_hooks : (t -> addr:int -> width:Insn.width -> unit) array;
  mutable nstore_hooks : int;
  mutable load_hooks : (t -> addr:int -> width:Insn.width -> unit) array;
  mutable nload_hooks : int;
  (* Pre-decoded instruction closures, parallel to [text]: slot [i] is a
     specialized [t -> unit] compiled from [text.(i)] with the operand
     shape (register vs immediate), access width, cc flag and
     fall-through pc all resolved at decode time.  The hot loop executes
     one indirect call instead of re-matching the [Insn.t] tree on every
     step.  [patch] recompiles the slot it touches; [rollback]
     recompiles the slots whose instruction changed. *)
  mutable code : (t -> unit) array;
  (* Monotonic text-content version, bumped by [patch] and by any
     [rollback] that changes text.  Checkpoints taken while no patching
     happens between them share a single text copy (see [text_copy]). *)
  mutable text_version : int;
  mutable text_snap : (int * Insn.t array) option;
  (* Hot-path profiler hooks.  The arrays belong to a {!Telemetry}-side
     [Profile.t]; the interpreter only bumps them.  Each [prof_exec]
     slot packs the control classification ([Profile.kind_*]) into its
     low two bits and the execution count above them (increment step 4),
     so one read-modify-write per step yields both the count and the
     branch-vs-transfer decision — no separate kind load;
     [profile_install] seeds the bits and [patch]/[rollback] keep them
     in sync with text.  An empty [prof_exec] means no profiler.  Like
     the dispatch counters, none of this touches {!stats} — the
     differential fuzz harness's fast/generic parity is preserved. *)
  mutable prof_exec : int array;
  mutable prof_taken : int array;
  mutable prof_transfer : int -> int -> unit;  (* kind, executed slot *)
  (* Time-series sampler hook: a countdown over executed instructions
     that fires the hook with the live instruction count every
     [samp_every] executed instructions ([samp_every = 0]: no sampler).
     Never touches {!stats}. *)
  mutable samp_every : int;
  mutable samp_left : int;
  mutable samp_hook : int -> unit;
  (* The one observer gate.  [paused] is raised by [without_observers]
     around replay re-execution; [observed] caches "a profiler or
     sampler is installed and not paused", so a run with neither pays
     exactly one boolean test per step. *)
  mutable paused : bool;
  mutable observed : bool;
}

let faultf t fmt =
  Format.kasprintf (fun reason -> raise (Fault { pc = t.pc; reason })) fmt

let no_probes : (t -> unit) array = [||]

(* Local copies of the {!Word} primitives used on the hot path: the
   non-flambda compiler only inlines within a module, so calling
   [Word.norm]/[Word.add] from here costs a real call per use.  These
   are definitionally identical to the [Word] versions. *)
let[@inline] norm x =
  let v = x land 0xFFFFFFFF in
  if v land 0x80000000 <> 0 then v - 0x1_0000_0000 else v

let[@inline] uns x = x land 0xFFFFFFFF

(* Register access by {!Windows.slot}, indexing the flat register file
   directly (its representation is exposed for exactly this).
   {!compile} resolves every operand's slot once, at decode time.
   [%g0] is slot 0, which holds zero and is never written.  [rset]
   stores its value as is: callers pass normalized words. *)
let[@inline] rget t c =
  let w = t.win in
  if c < 8 then Array.unsafe_get w.Windows.regs c
  else Array.unsafe_get w.Windows.regs (w.Windows.base + c)

let[@inline] rset t c v =
  let w = t.win in
  if c >= 8 then Array.unsafe_set w.Windows.regs (w.Windows.base + c) v
  else if c > 0 then Array.unsafe_set w.Windows.regs c v

let get t r = rget t (Windows.slot r)
let set t r v = rset t (Windows.slot r) (norm v)

let operand t = function
  | Insn.Reg r -> get t r
  | Insn.Imm i -> Word.norm i

let on_trap t number handler = Hashtbl.replace t.traps number handler

let text_index t addr =
  let off = addr - t.text_base in
  if off < 0 || off land 3 <> 0 || off / 4 >= Array.length t.text then
    faultf t "pc 0x%x outside text" (Word.to_unsigned addr)
  else off / 4

let add_probe t addr f =
  let i = text_index t addr in
  (* Probes fire in registration order (append keeps it). *)
  t.probes.(i) <- Array.append t.probes.(i) [| f |]

let output t = Buffer.contents t.out
let print_string t s = Buffer.add_string t.out s

let sbrk t bytes =
  let old = t.brk in
  t.brk <- (t.brk + bytes + 7) land lnot 7;
  old

let fetch_at t addr = t.text.(text_index t addr)

let add_cycles t n = t.cycles <- t.cycles + n

(* ---------- profiling hooks ---------- *)

(* Classify one instruction for the profiler: (kind, static target
   slot or -1).  A linking [jmpl] (rd <> %g0) is an indirect call; a
   non-linking one is a return — [Asm.ret]/[Asm.retl] both write %g0. *)
let prof_classify t _i insn =
  let slot_of = function
    | Insn.Abs a ->
      let off = a - t.text_base in
      if off >= 0 && off land 3 = 0 && off lsr 2 < Array.length t.text then
        off lsr 2
      else -1
    | Insn.Sym _ -> -1
  in
  match insn with
  | Insn.Branch { target; _ } -> (Profile.kind_branch, slot_of target)
  | Insn.Call { target } -> (Profile.kind_call, slot_of target)
  | Insn.Jmpl { rd = Reg.G 0; _ } -> (Profile.kind_ret, -1)
  | Insn.Jmpl _ -> (Profile.kind_call, -1)
  | _ -> (Profile.kind_plain, -1)

let profile_static t = Arr.mapi (prof_classify t) t.text

let refresh_observed t =
  t.observed <-
    (not t.paused) && (Array.length t.prof_exec > 0 || t.samp_every > 0)

let profile_install t ~exec ~taken ~transfer =
  let n = Array.length t.text in
  if Array.length exec < n || Array.length taken < n then
    invalid_arg "Cpu.profile_install: counter arrays shorter than text";
  t.prof_exec <- exec;
  t.prof_taken <- taken;
  (* Seed the kind bits (counts sit above them, see the field doc). *)
  Array.iteri
    (fun i insn ->
      exec.(i) <- (exec.(i) land lnot 3) lor fst (prof_classify t i insn))
    t.text;
  t.prof_transfer <- transfer;
  refresh_observed t

let sample_install t ~every ~hook =
  if every < 1 then invalid_arg "Cpu.sample_install: every must be >= 1";
  t.samp_every <- every;
  t.samp_left <- every;
  t.samp_hook <- hook;
  refresh_observed t

let observing t = not t.paused

let without_observers t f =
  let was = t.paused in
  t.paused <- true;
  refresh_observed t;
  Fun.protect
    ~finally:(fun () ->
      t.paused <- was;
      refresh_observed t)
    f

(* Post-step sampler countdown; fires the hook on every [samp_every]th
   executed instruction. *)
let[@inline] samp_step t =
  let left = t.samp_left - 1 in
  if left <= 0 then begin
    t.samp_left <- t.samp_every;
    t.samp_hook t.ninstrs
  end
  else t.samp_left <- left

let prof_repatch t i insn =
  let c = t.prof_exec in
  if Array.length c > i then
    c.(i) <- (c.(i) land lnot 3) lor fst (prof_classify t i insn)

(* Post-step accounting for the executed slot [idx]: bump its exec
   counter (packed: count above the two kind bits, so the same word
   also decides what else to do); for a branch, compare the new pc
   against the fall-through to detect taken-ness; calls and returns go
   through the (rare) transfer closure, which reads the destination
   from [t.pc]. *)
let[@inline] prof_step t idx =
  let c = t.prof_exec in
  let v = Array.unsafe_get c idx + 4 in
  Array.unsafe_set c idx v;
  let k = v land 3 in
  if k <> 0 then
    if k = 1 then begin
      if t.pc <> t.text_base + ((idx + 1) lsl 2) then begin
        let tk = t.prof_taken in
        Array.unsafe_set tk idx (Array.unsafe_get tk idx + 1)
      end
    end
    else t.prof_transfer k idx

(* Post-step work of whichever observers are installed, for the
   executed slot [idx]; [step] calls it only while [observed]. *)
let[@inline] observe t idx =
  if Array.length t.prof_exec > 0 then prof_step t idx;
  if t.samp_every > 0 then samp_step t

(* Cache probe, inlined from {!Cache.access}: runs once per fetch and
   once per data access.  Counters live in the shared [Cache.t] so
   [stats]/[flush] behave exactly as before. *)
let cache_access t addr =
  let c = t.cache in
  let line_addr = uns addr lsr c.Cache.line_bits in
  let idx =
    if c.Cache.mask >= 0 then line_addr land c.Cache.mask
    else line_addr mod c.Cache.lines
  in
  if Array.unsafe_get c.Cache.tags idx = line_addr then begin
    c.Cache.hits <- c.Cache.hits + 1;
    true
  end
  else begin
    c.Cache.misses <- c.Cache.misses + 1;
    Array.unsafe_set c.Cache.tags idx line_addr;
    false
  end

let data_access t addr =
  if not (cache_access t addr) then add_cycles t t.config.miss_penalty

let alu_result t op a b =
  match op with
  | Insn.Add -> Word.add a b
  | Insn.Sub -> Word.sub a b
  | Insn.And -> Word.logand a b
  | Insn.Or -> Word.logor a b
  | Insn.Xor -> Word.logxor a b
  | Insn.Andn -> Word.logand a (Word.lognot b)
  | Insn.Orn -> Word.logor a (Word.lognot b)
  | Insn.Xnor -> Word.lognot (Word.logxor a b)
  | Insn.Sll -> Word.sll a b
  | Insn.Srl -> Word.srl a b
  | Insn.Sra -> Word.sra a b
  | Insn.Smul ->
    add_cycles t (t.config.mul_cycles - 1);
    Word.mul a b
  | Insn.Umul ->
    add_cycles t (t.config.mul_cycles - 1);
    Word.umul a b
  | Insn.Sdiv ->
    add_cycles t (t.config.div_cycles - 1);
    (try Word.sdiv a b with Division_by_zero -> faultf t "division by zero")
  | Insn.Udiv ->
    add_cycles t (t.config.div_cycles - 1);
    (try Word.udiv a b with Division_by_zero -> faultf t "division by zero")

(* Allocation-free flag update: builds the packed bits directly (the
   seed allocated a [Cond.icc] record per cc-setting instruction). *)
let set_icc t op a b r =
  let nz = (if r < 0 then 8 else 0) lor if r = 0 then 4 else 0 in
  let vc =
    match op with
    | Insn.Add ->
      (if Word.add_overflow a b then 2 else 0)
      lor if Word.add_carry a b then 1 else 0
    | Insn.Sub ->
      (if Word.sub_overflow a b then 2 else 0)
      lor if Word.sub_carry a b then 1 else 0
    | Insn.And | Insn.Or | Insn.Xor | Insn.Andn | Insn.Orn | Insn.Xnor
    | Insn.Sll | Insn.Srl | Insn.Sra | Insn.Smul | Insn.Umul | Insn.Sdiv
    | Insn.Udiv ->
      0
  in
  t.icc <- nz lor vc

let resolved t = function
  | Insn.Abs a -> a
  | Insn.Sym s -> faultf t "unresolved label %s at runtime" s

let pair_reg t rd =
  let i = Reg.index rd in
  if i land 1 <> 0 then faultf t "odd register %s in double access" (Reg.to_string rd)
  else Reg.of_index (i + 1)

let double_align t ea = if ea land 7 <> 0 then faultf t "misaligned double access 0x%x" ea

let run_store_hooks t ea width =
  let hs = t.store_hooks in
  t.nstore_hook_dispatches <- t.nstore_hook_dispatches + t.nstore_hooks;
  for i = 0 to t.nstore_hooks - 1 do
    (Array.unsafe_get hs i) t ~addr:ea ~width
  done

let run_load_hooks t ea width =
  let hs = t.load_hooks in
  t.nload_hook_dispatches <- t.nload_hook_dispatches + t.nload_hooks;
  for i = 0 to t.nload_hooks - 1 do
    (Array.unsafe_get hs i) t ~addr:ea ~width
  done

(* Width-specialized memory-operation bodies, shared between the
   generic {!execute} (probe slow path) and the pre-decoded closures
   built by {!compile}, so the two paths cannot diverge.  Word and
   sub-word accesses take the data register's slot; double accesses,
   which need the register's name for the odd-register fault, take the
   register itself. *)

(* The page holding [key], looked up inline in {!Memory}'s two-level
   table: three dependent loads, no test for a missing page. *)
let[@inline] mem_page m key =
  Array.unsafe_get
    (Array.unsafe_get m.Memory.dir (key lsr Memory.l2_bits))
    (key land Memory.l2_mask)

let ld_word t ea rd =
  t.nloads <- t.nloads + 1;
  add_cycles t t.config.load_cycles;
  data_access t ea;
  let a = uns ea in
  if a land 3 <> 0 then faultf t "misaligned 4-byte load at 0x%x" a;
  (* Memory holds normalized words. *)
  rset t rd
    (Array.unsafe_get
       (mem_page t.mem (a lsr Memory.page_bits)).Memory.arr
       ((a land Memory.offset_mask) lsr 2));
  if t.nload_hooks <> 0 then run_load_hooks t ea Insn.Word

let ld_double t ea rd =
  t.nloads <- t.nloads + 1;
  add_cycles t t.config.load_cycles;
  double_align t ea;
  let odd = pair_reg t rd in
  data_access t ea;
  data_access t (ea + 4);
  (try
     set t rd (Memory.read_word t.mem ea);
     set t odd (Memory.read_word t.mem (ea + 4))
   with Memory.Misaligned { addr; width } ->
     faultf t "misaligned %d-byte load at 0x%x" width (Word.to_unsigned addr));
  if t.nload_hooks <> 0 then run_load_hooks t ea Insn.Double

let ld_sub t ea width signed rd =
  t.nloads <- t.nloads + 1;
  add_cycles t t.config.load_cycles;
  data_access t ea;
  (try
     let v =
       if signed then Memory.read_signed t.mem ea width
       else Memory.read_unsigned t.mem ea width
     in
     rset t rd v
   with Memory.Misaligned { addr; width } ->
     faultf t "misaligned %d-byte load at 0x%x" width (Word.to_unsigned addr));
  if t.nload_hooks <> 0 then run_load_hooks t ea width

let st_word t ea rd =
  t.nstores <- t.nstores + 1;
  add_cycles t t.config.store_cycles;
  data_access t ea;
  let a = uns ea in
  if a land 3 <> 0 then faultf t "misaligned 4-byte store at 0x%x" a;
  let m = t.mem in
  let key = a lsr Memory.page_bits in
  let p = mem_page m key in
  let arr =
    if p.Memory.gen = m.Memory.epoch then p.Memory.arr
    else Memory.writable m key
  in
  (* Register values are already normalized. *)
  Array.unsafe_set arr ((a land Memory.offset_mask) lsr 2) (rget t rd);
  if t.nstore_hooks <> 0 then run_store_hooks t ea Insn.Word

let st_double t ea rd =
  t.nstores <- t.nstores + 1;
  add_cycles t t.config.store_cycles;
  double_align t ea;
  let odd = pair_reg t rd in
  data_access t ea;
  data_access t (ea + 4);
  (try
     Memory.write_word t.mem ea (get t rd);
     Memory.write_word t.mem (ea + 4) (get t odd)
   with Memory.Misaligned { addr; width } ->
     faultf t "misaligned %d-byte store at 0x%x" width (Word.to_unsigned addr));
  if t.nstore_hooks <> 0 then run_store_hooks t ea Insn.Double

let st_byte t ea rd =
  t.nstores <- t.nstores + 1;
  add_cycles t t.config.store_cycles;
  data_access t ea;
  (try Memory.write_byte t.mem ea (rget t rd land 0xFF)
   with Memory.Misaligned { addr; width } ->
     faultf t "misaligned %d-byte store at 0x%x" width (Word.to_unsigned addr));
  if t.nstore_hooks <> 0 then run_store_hooks t ea Insn.Byte

let st_half t ea rd =
  t.nstores <- t.nstores + 1;
  add_cycles t t.config.store_cycles;
  data_access t ea;
  (try Memory.write_half t.mem ea (rget t rd land 0xFFFF)
   with Memory.Misaligned { addr; width } ->
     faultf t "misaligned %d-byte store at 0x%x" width (Word.to_unsigned addr));
  if t.nstore_hooks <> 0 then run_store_hooks t ea Insn.Half

(* Execute [insn]; [next] is the fall-through pc.  This generic
   interpreter only runs on the probe slow path (and so also backs the
   differential fuzz check against the pre-decoded fast path). *)
let execute t insn next =
  match insn with
  | Insn.Nop -> t.pc <- next
  | Insn.Alu { op; cc; rs1; op2; rd } ->
    let a = get t rs1 and b = operand t op2 in
    let r = alu_result t op a b in
    set t rd r;
    if cc then set_icc t op a b r;
    t.pc <- next
  | Insn.Sethi { imm; rd } ->
    set t rd (Word.norm (imm lsl 10));
    t.pc <- next
  | Insn.Ld { width; signed; rs1; off; rd } ->
    let ea = Word.add (get t rs1) (operand t off) in
    (match width with
    | Insn.Word -> ld_word t ea (Windows.slot rd)
    | Insn.Double -> ld_double t ea rd
    | Insn.Byte | Insn.Half -> ld_sub t ea width signed (Windows.slot rd));
    t.pc <- next
  | Insn.St { width; rd; rs1; off } ->
    let ea = Word.add (get t rs1) (operand t off) in
    (match width with
    | Insn.Word -> st_word t ea (Windows.slot rd)
    | Insn.Double -> st_double t ea rd
    | Insn.Byte -> st_byte t ea (Windows.slot rd)
    | Insn.Half -> st_half t ea (Windows.slot rd));
    t.pc <- next
  | Insn.Branch { cond; target } ->
    t.nbranches <- t.nbranches + 1;
    if Cond.eval_packed cond t.icc then t.pc <- resolved t target
    else t.pc <- next
  | Insn.Call { target } ->
    set t Reg.o7 t.pc;
    t.pc <- resolved t target
  | Insn.Jmpl { rs1; off; rd } ->
    let dest = Word.add (get t rs1) (operand t off) in
    if dest land 3 <> 0 then faultf t "misaligned jump to 0x%x" (Word.to_unsigned dest);
    set t rd t.pc;
    t.pc <- dest
  | Insn.Save { rs1; op2; rd } ->
    let v = Word.add (get t rs1) (operand t op2) in
    let spills = Windows.spills t.win in
    Windows.save t.win;
    if Windows.spills t.win > spills then add_cycles t t.config.spill_cycles;
    set t rd v;
    t.pc <- next
  | Insn.Restore { rs1; op2; rd } ->
    let v = Word.add (get t rs1) (operand t op2) in
    let fills = Windows.fills t.win in
    (try Windows.restore t.win
     with Windows.Underflow -> faultf t "register window underflow");
    if Windows.fills t.win > fills then add_cycles t t.config.spill_cycles;
    set t rd v;
    t.pc <- next
  | Insn.Trap { number } ->
    t.ntraps <- t.ntraps + 1;
    add_cycles t t.config.trap_cycles;
    t.pc <- next;
    (match Hashtbl.find_opt t.traps number with
    | Some handler -> handler t
    | None -> faultf t "unhandled trap %d" number)

(* Packed condition codes for the compile-time-specialized [addcc] /
   [subcc] closures below: same bits as {!set_icc}, computed without
   the cross-module [Word.add_overflow]/[add_carry] calls. *)
let[@inline] icc_add a b r =
  (if r < 0 then 8 else 0)
  lor (if r = 0 then 4 else 0)
  lor (if (a >= 0 && b >= 0 && r < 0) || (a < 0 && b < 0 && r >= 0) then 2
       else 0)
  lor if uns a + uns b > 0xFFFFFFFF then 1 else 0

let[@inline] icc_sub a b r =
  (if r < 0 then 8 else 0)
  lor (if r = 0 then 4 else 0)
  lor (if (a >= 0 && b < 0 && r < 0) || (a < 0 && b >= 0 && r >= 0) then 2
       else 0)
  lor if uns a < uns b then 1 else 0

(* Pre-decode one instruction into a specialized closure.  The
   fall-through pc, register slots, operand shapes, access width and cc
   flag are all resolved here, once, instead of being re-matched on
   every execution.
   The bodies delegate to the same [ld_*]/[st_*]/[alu_result]/[set_icc]
   helpers as {!execute}, so both paths stay bit-identical. *)
let compile text_base idx insn : t -> unit =
  let next = text_base + ((idx + 1) lsl 2) in
  let slot = Windows.slot in
  match insn with
  | Insn.Nop -> fun t -> t.pc <- next
  | Insn.Alu { op; cc; rs1; op2; rd } -> (
    let rs1 = slot rs1 and rd = slot rd in
    match (op, cc, op2) with
    (* The shapes below cover almost every ALU instruction the mini-C
       compiler emits (address arithmetic, loop increments, and the
       [mov]/[cmp] synthetics); specializing them removes both the
       per-execution dispatch on [op] and the [Word] calls. *)
    | Insn.Add, false, Insn.Imm i ->
      let b = norm i in
      fun t ->
        rset t rd (norm (rget t rs1 + b));
        t.pc <- next
    | Insn.Add, false, Insn.Reg rs2 ->
      let rs2 = slot rs2 in
      fun t ->
        rset t rd (norm (rget t rs1 + rget t rs2));
        t.pc <- next
    | Insn.Sub, false, Insn.Imm i ->
      let b = norm i in
      fun t ->
        rset t rd (norm (rget t rs1 - b));
        t.pc <- next
    | Insn.Sub, false, Insn.Reg rs2 ->
      let rs2 = slot rs2 in
      fun t ->
        rset t rd (norm (rget t rs1 - rget t rs2));
        t.pc <- next
    | Insn.Or, false, Insn.Imm i ->
      let b = norm i in
      fun t ->
        rset t rd (norm (rget t rs1 lor b));
        t.pc <- next
    | Insn.Or, false, Insn.Reg rs2 ->
      let rs2 = slot rs2 in
      fun t ->
        rset t rd (norm (rget t rs1 lor rget t rs2));
        t.pc <- next
    | Insn.Sll, false, Insn.Imm i ->
      let b = norm i land 31 in
      fun t ->
        rset t rd (norm (rget t rs1 lsl b));
        t.pc <- next
    | Insn.Add, true, Insn.Imm i ->
      let b = norm i in
      fun t ->
        let a = rget t rs1 in
        let r = norm (a + b) in
        rset t rd r;
        t.icc <- icc_add a b r;
        t.pc <- next
    | Insn.Add, true, Insn.Reg rs2 ->
      let rs2 = slot rs2 in
      fun t ->
        let a = rget t rs1 and b = rget t rs2 in
        let r = norm (a + b) in
        rset t rd r;
        t.icc <- icc_add a b r;
        t.pc <- next
    | Insn.Sub, true, Insn.Imm i ->
      let b = norm i in
      fun t ->
        let a = rget t rs1 in
        let r = norm (a - b) in
        rset t rd r;
        t.icc <- icc_sub a b r;
        t.pc <- next
    | Insn.Sub, true, Insn.Reg rs2 ->
      let rs2 = slot rs2 in
      fun t ->
        let a = rget t rs1 and b = rget t rs2 in
        let r = norm (a - b) in
        rset t rd r;
        t.icc <- icc_sub a b r;
        t.pc <- next
    | _, _, Insn.Imm i ->
      let b = norm i in
      if cc then
        fun t ->
          let a = rget t rs1 in
          let r = alu_result t op a b in
          rset t rd r;
          set_icc t op a b r;
          t.pc <- next
      else
        fun t ->
          rset t rd (alu_result t op (rget t rs1) b);
          t.pc <- next
    | _, _, Insn.Reg rs2 ->
      let rs2 = slot rs2 in
      if cc then
        fun t ->
          let a = rget t rs1 and b = rget t rs2 in
          let r = alu_result t op a b in
          rset t rd r;
          set_icc t op a b r;
          t.pc <- next
      else
        fun t ->
          rset t rd (alu_result t op (rget t rs1) (rget t rs2));
          t.pc <- next)
  | Insn.Sethi { imm; rd } ->
    let v = Word.norm (imm lsl 10) and rd = slot rd in
    fun t ->
      rset t rd v;
      t.pc <- next
  | Insn.Ld { width; signed; rs1; off; rd } -> (
    let rs1 = slot rs1 in
    match (width, off) with
    | Insn.Word, Insn.Imm i ->
      let i = Word.norm i and rd = slot rd in
      fun t ->
        ld_word t (norm (rget t rs1 + i)) rd;
        t.pc <- next
    | Insn.Word, Insn.Reg rs2 ->
      let rs2 = slot rs2 and rd = slot rd in
      fun t ->
        ld_word t (norm (rget t rs1 + rget t rs2)) rd;
        t.pc <- next
    | Insn.Double, _ ->
      fun t ->
        ld_double t (Word.add (rget t rs1) (operand t off)) rd;
        t.pc <- next
    | (Insn.Byte | Insn.Half), _ ->
      let rd = slot rd in
      fun t ->
        ld_sub t (Word.add (rget t rs1) (operand t off)) width signed rd;
        t.pc <- next)
  | Insn.St { width; rd; rs1; off } -> (
    let rs1 = slot rs1 in
    match (width, off) with
    | Insn.Word, Insn.Imm i ->
      let i = Word.norm i and rd = slot rd in
      fun t ->
        st_word t (norm (rget t rs1 + i)) rd;
        t.pc <- next
    | Insn.Word, Insn.Reg rs2 ->
      let rs2 = slot rs2 and rd = slot rd in
      fun t ->
        st_word t (norm (rget t rs1 + rget t rs2)) rd;
        t.pc <- next
    | Insn.Double, _ ->
      fun t ->
        st_double t (Word.add (rget t rs1) (operand t off)) rd;
        t.pc <- next
    | Insn.Byte, _ ->
      let rd = slot rd in
      fun t ->
        st_byte t (Word.add (rget t rs1) (operand t off)) rd;
        t.pc <- next
    | Insn.Half, _ ->
      let rd = slot rd in
      fun t ->
        st_half t (Word.add (rget t rs1) (operand t off)) rd;
        t.pc <- next)
  | Insn.Branch { cond; target } -> (
    match (target, cond) with
    | Insn.Abs a, Cond.A ->
      fun t ->
        t.nbranches <- t.nbranches + 1;
        t.pc <- a
    | Insn.Abs a, _ ->
      fun t ->
        t.nbranches <- t.nbranches + 1;
        t.pc <- (if Cond.eval_packed cond t.icc then a else next)
    | Insn.Sym _, _ ->
      fun t ->
        t.nbranches <- t.nbranches + 1;
        if Cond.eval_packed cond t.icc then t.pc <- resolved t target
        else t.pc <- next)
  | Insn.Call { target } -> (
    let o7 = slot Reg.o7 in
    match target with
    | Insn.Abs a ->
      fun t ->
        rset t o7 (norm t.pc);
        t.pc <- a
    | Insn.Sym _ ->
      fun t ->
        rset t o7 (norm t.pc);
        t.pc <- resolved t target)
  | Insn.Jmpl { rs1; off; rd } ->
    let rs1 = slot rs1 and rd = slot rd in
    fun t ->
      let dest = Word.add (rget t rs1) (operand t off) in
      if dest land 3 <> 0 then
        faultf t "misaligned jump to 0x%x" (Word.to_unsigned dest);
      rset t rd (norm t.pc);
      t.pc <- dest
  | Insn.Save { rs1; op2; rd } ->
    let rs1 = slot rs1 and rd = slot rd in
    fun t ->
      let v = Word.add (rget t rs1) (operand t op2) in
      let spills = Windows.spills t.win in
      Windows.save t.win;
      if Windows.spills t.win > spills then add_cycles t t.config.spill_cycles;
      rset t rd v;
      t.pc <- next
  | Insn.Restore { rs1; op2; rd } ->
    let rs1 = slot rs1 and rd = slot rd in
    fun t ->
      let v = Word.add (rget t rs1) (operand t op2) in
      let fills = Windows.fills t.win in
      (try Windows.restore t.win
       with Windows.Underflow -> faultf t "register window underflow");
      if Windows.fills t.win > fills then add_cycles t t.config.spill_cycles;
      rset t rd v;
      t.pc <- next
  | Insn.Trap { number } ->
    fun t ->
      t.ntraps <- t.ntraps + 1;
      add_cycles t t.config.trap_cycles;
      t.pc <- next;
      (match Hashtbl.find_opt t.traps number with
      | Some handler -> handler t
      | None -> faultf t "unhandled trap %d" number)

let create ?(config = default_config) (image : Assembler.image) =
  let mem = Memory.create () in
  List.iter (fun (addr, v) -> Memory.write_word mem addr v) image.data_init;
  let text = Array.copy image.text in
  let t =
    {
      mem;
      cache = Cache.create ~size_bytes:config.cache_size ~line_bytes:config.line_bytes ();
      win = Windows.create ~nwindows:config.nwindows ();
      pc = image.entry;
      icc = Cond.packed_zero;
      halted = None;
      ninstrs = 0;
      cycles = 0;
      nloads = 0;
      nstores = 0;
      nbranches = 0;
      ntraps = 0;
      nprobe_dispatches = 0;
      nstore_hook_dispatches = 0;
      nload_hook_dispatches = 0;
      text;
      text_base = image.text_base;
      traps = Hashtbl.create 16;
      probes = Array.make (Array.length image.text) no_probes;
      out = Buffer.create 256;
      brk = (image.data_limit + 7) land lnot 7;
      config;
      store_hooks = [||];
      nstore_hooks = 0;
      load_hooks = [||];
      nload_hooks = 0;
      code = Arr.mapi (compile image.text_base) text;
      text_version = 0;
      text_snap = None;
      prof_exec = [||];
      prof_taken = [||];
      prof_transfer = (fun _ _ -> ());
      samp_every = 0;
      samp_left = 0;
      samp_hook = ignore;
      paused = false;
      observed = false;
    }
  in
  Windows.set t.win Reg.sp 0x7FFF_FF00;
  t

let patch t addr insn =
  let i = text_index t addr in
  t.text.(i) <- insn;
  t.code.(i) <- compile t.text_base i insn;
  prof_repatch t i insn;
  t.text_version <- t.text_version + 1

let step t =
  let off = t.pc - t.text_base in
  let idx = off lsr 2 in
  (* A negative [off] shifts to a huge positive [idx], so one unsigned
     comparison covers both underflow and overflow. *)
  if off land 3 <> 0 || idx >= Array.length t.text then
    faultf t "pc 0x%x outside text" (Word.to_unsigned t.pc);
  let ps = Array.unsafe_get t.probes idx in
  if ps == no_probes then begin
    if not (cache_access t t.pc) then add_cycles t t.config.miss_penalty;
    t.ninstrs <- t.ninstrs + 1;
    add_cycles t 1;
    (Array.unsafe_get t.code idx) t;
    if t.observed then observe t idx
  end
  else begin
    t.nprobe_dispatches <- t.nprobe_dispatches + Array.length ps;
    for i = 0 to Array.length ps - 1 do
      (Array.unsafe_get ps i) t
    done;
    (* A probe may patch text or move the pc (breakpoint callbacks);
       re-fetch through the checked path and fall back to the generic
       interpreter. *)
    let eidx = text_index t t.pc in
    let insn = Array.unsafe_get t.text eidx in
    if not (cache_access t t.pc) then add_cycles t t.config.miss_penalty;
    t.ninstrs <- t.ninstrs + 1;
    add_cycles t 1;
    execute t insn (t.pc + 4);
    if t.observed then observe t eidx
  end

let halt t code = t.halted <- Some code

(* The one run loop; recording and replay stop it at checkpoint
   boundaries.  [halted] can only flip inside [step] (a trap handler,
   probe, or hook), so a field test per iteration suffices — no option
   allocation, no per-step match. *)
let run_to t ~insn =
  while t.halted == None && t.ninstrs < insn do
    step t
  done

let run ?(fuel = 200_000_000) t =
  let start = t.ninstrs in
  run_to t ~insn:(if fuel > max_int - start then max_int else start + fuel);
  match t.halted with
  | Some code -> code
  | None -> raise (Out_of_fuel { executed = t.ninstrs - start })

let install_basic_services t =
  on_trap t 0 (fun t -> halt t (get t (Reg.o 0)));
  on_trap t 1 (fun t -> print_string t (string_of_int (get t (Reg.o 0))));
  on_trap t 2 (fun t ->
      print_string t (String.make 1 (Char.chr (get t (Reg.o 0) land 0xFF))));
  on_trap t 3 (fun t -> set t (Reg.o 0) (sbrk t (get t (Reg.o 0))))

let mem t = t.mem
let config t = t.config

(* Checkpoint/replay support (the paper's §5 mentions checkpointing
   data for replayed execution as a data-breakpoint application).
   Checkpoints are copy-on-write: capturing memory is O(1) via
   {!Memory.snapshot_cow}; only pages the run subsequently dirties get
   copied, and adjacent checkpoints share every untouched page.  The
   cache (tags *and* counters) and window spill/fill counters are
   captured exactly, so re-execution from a checkpoint reproduces the
   original run's [stats] bit-for-bit. *)
type checkpoint = {
  cp_mem : Memory.view;
  cp_win : Windows.t;
  cp_cache : Cache.snapshot;
  cp_pc : int;
  cp_icc : int;
  cp_halted : int option;
  cp_ninstrs : int;
  cp_cycles : int;
  cp_nloads : int;
  cp_nstores : int;
  cp_nbranches : int;
  cp_ntraps : int;
  cp_text : Insn.t array;
      (* shared between checkpoints while no patching intervenes *)
  cp_text_version : int;
  cp_out : string;
  cp_brk : int;
}

(* One text copy per text version: checkpoints taken while no [patch]
   intervened share the same array. *)
let text_copy t =
  match t.text_snap with
  | Some (v, arr) when v = t.text_version -> arr
  | _ ->
    let arr = Array.copy t.text in
    t.text_snap <- Some (t.text_version, arr);
    arr

let checkpoint t =
  {
    cp_mem = Memory.snapshot_cow t.mem;
    cp_win = Windows.copy t.win;
    cp_cache = Cache.snapshot t.cache;
    cp_pc = t.pc;
    cp_icc = t.icc;
    cp_halted = t.halted;
    cp_ninstrs = t.ninstrs;
    cp_cycles = t.cycles;
    cp_nloads = t.nloads;
    cp_nstores = t.nstores;
    cp_nbranches = t.nbranches;
    cp_ntraps = t.ntraps;
    cp_text = text_copy t;
    cp_text_version = t.text_version;
    cp_out = Buffer.contents t.out;
    cp_brk = t.brk;
  }

let rollback t cp =
  Memory.restore_cow t.mem cp.cp_mem;
  Windows.restore_from t.win cp.cp_win;
  t.pc <- cp.cp_pc;
  t.icc <- cp.cp_icc;
  t.halted <- cp.cp_halted;
  t.ninstrs <- cp.cp_ninstrs;
  t.cycles <- cp.cp_cycles;
  t.nloads <- cp.cp_nloads;
  t.nstores <- cp.cp_nstores;
  t.nbranches <- cp.cp_nbranches;
  t.ntraps <- cp.cp_ntraps;
  if cp.cp_text_version <> t.text_version then begin
    for i = 0 to Array.length t.text - 1 do
      let insn = cp.cp_text.(i) in
      (* [Insn.t] values are immutable, so a physically unchanged slot
         still has a valid pre-decoded closure; only recompile slots the
         run actually patched. *)
      if insn != t.text.(i) then begin
        t.text.(i) <- insn;
        t.code.(i) <- compile t.text_base i insn;
        prof_repatch t i insn
      end
    done;
    (* Text now equals [cp_text]; give it a fresh monotonic version so a
       stale cached copy can never be mistaken for the current text, and
       seed the cache with [cp_text] itself (it is a valid copy). *)
    t.text_version <- t.text_version + 1;
    t.text_snap <- Some (t.text_version, cp.cp_text)
  end;
  Buffer.clear t.out;
  Buffer.add_string t.out cp.cp_out;
  t.brk <- cp.cp_brk;
  (* Exact cache restoration — tags and hit/miss counters — so replayed
     cycle counts match the original run exactly. *)
  Cache.restore t.cache cp.cp_cache

let checkpoint_view cp = cp.cp_mem
let checkpoint_insns cp = cp.cp_ninstrs

let checkpoint_overhead_bytes cp =
  (* Fixed (non-page) cost of one checkpoint: cache tags, register
     windows (charged at 8 globals + 24 words per window, the figure
     the replay tables print), captured output, and the scalar
     fields.  Page bytes are accounted separately by the journal
     via {!Memory.view_diff}. *)
  Cache.snapshot_bytes cp.cp_cache
  + ((8 + (Windows.depth cp.cp_win * 24)) * 8)
  + String.length cp.cp_out + (15 * 8)

(* The replay determinism guard: compare the live machine with a
   checkpoint of the recorded run — pc, condition codes, heap break,
   halt status, captured output, the register-window file and every
   memory word.  Execution counters and cache state are deliberately
   excluded (tests compare [stats] separately).  Memory compares
   through {!Memory.diff_view}, so a replayed window costs the pages
   it wrote, not the resident image; a page materialized on one side
   only compares as zeros. *)
let diverges t cp =
  let named name recorded live = Some (name ^ "=" ^ recorded, name ^ "=" ^ live) in
  let field name show recorded live () =
    if recorded = live then None else named name (show recorded) (show live)
  in
  let first checks = List.find_map (fun check -> check ()) checks in
  (* Output is named by its length and last bytes. *)
  let tail s =
    let n = String.length s in
    Printf.sprintf "%d bytes ending %S" n (String.sub s (max 0 (n - 16)) (min n 16))
  in
  let windows () =
    let r = cp.cp_win.Windows.regs and l = t.win.Windows.regs in
    let regs name at () =
      let rec go i =
        if i = 8 then None
        else if r.(at + i) <> l.(at + i) then
          named
            (Printf.sprintf "%s%d" name i)
            (string_of_int r.(at + i)) (string_of_int l.(at + i))
        else go (i + 1)
      in
      go 0
    in
    (* Window [k] counts out from the current one.  Depths are equal by
       the time it runs, so both files share one layout; a window's outs
       are the next inner window's ins and compare there first. *)
    let depth = cp.cp_win.Windows.depth in
    let rec frames k () =
      if k = depth then None
      else
        let base = 16 * (depth - 1 - k) in
        let name reg = Printf.sprintf "window %d %%%s" k reg in
        first
          [
            regs (name "l") (base + 16);
            regs (name "i") (base + 8);
            regs (name "o") (base + 24);
            frames (k + 1);
          ]
    in
    let w = t.win and c = cp.cp_win in
    first
      [
        regs "%g" 0;
        field "depth" string_of_int c.depth w.depth;
        field "resident" string_of_int c.resident w.resident;
        frames 0;
      ]
  in
  let memory () =
    Option.bind (Memory.diff_view t.mem cp.cp_mem)
      (fun (addr, recorded, live) ->
        named
          (Printf.sprintf "word 0x%x" addr)
          (string_of_int recorded) (string_of_int live))
  in
  let hex = Printf.sprintf "0x%x" in
  let halt = function None -> "running" | Some c -> string_of_int c in
  first
    [
      field "pc" hex cp.cp_pc t.pc;
      field "icc" string_of_int cp.cp_icc t.icc;
      field "brk" hex cp.cp_brk t.brk;
      field "halted" halt cp.cp_halted t.halted;
      field "output" tail cp.cp_out (Buffer.contents t.out);
      windows;
      memory;
    ]

let pc t = t.pc
let set_pc t pc = t.pc <- pc
let brk t = t.brk
let halted t = t.halted

let push_hook arr n hook =
  let cap = Array.length arr in
  if n < cap then begin
    arr.(n) <- hook;
    arr
  end
  else begin
    let bigger = Array.make (max 4 (2 * cap)) hook in
    Array.blit arr 0 bigger 0 n;
    bigger
  end

let set_store_hook t hook =
  t.store_hooks <- push_hook t.store_hooks t.nstore_hooks hook;
  t.nstore_hooks <- t.nstore_hooks + 1

let set_load_hook t hook =
  t.load_hooks <- push_hook t.load_hooks t.nload_hooks hook;
  t.nload_hooks <- t.nload_hooks + 1

type stats = {
  instrs : int;
  cycles : int;
  loads : int;
  stores : int;
  branches : int;
  traps : int;
  cache_hits : int;
  cache_misses : int;
  window_spills : int;
}

let instr_count t = t.ninstrs
let cycle_count (t : t) = t.cycles
let probe_dispatches t = t.nprobe_dispatches
let store_hook_dispatches t = t.nstore_hook_dispatches
let load_hook_dispatches t = t.nload_hook_dispatches
let trap_count t = t.ntraps

let stats t =
  {
    instrs = t.ninstrs;
    cycles = t.cycles;
    loads = t.nloads;
    stores = t.nstores;
    branches = t.nbranches;
    traps = t.ntraps;
    cache_hits = Cache.hits t.cache;
    cache_misses = Cache.misses t.cache;
    window_spills = Windows.spills t.win;
  }
