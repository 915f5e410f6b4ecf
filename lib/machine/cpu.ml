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
  mutable icc : int;  (* packed {!Cond} flags; see [Cond.eval_packed] *)
  mutable halted : int option;
  mutable ninstrs : int;
  mutable cycles : int;
  (* Cache probes made by data accesses, a double-word access counting
     two.  Every executed instruction is one fetch, so the cache's hits
     are derived ([ninstrs + ndata - misses]) rather than bumped: a
     block's fetch that cannot miss skips the tag probe (see
     [run_block]). *)
  mutable ndata : int;
  mutable nloads : int;
  mutable nstores : int;
  mutable nbranches : int;
  mutable ntraps : int;
  (* Dispatch counters for the observability layer: how many probes and
     counters fired and how many hook invocations the memory operations
     performed.  Deliberately *not* part of {!stats} — the
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
  (* Counting probes by slot ({!add_counter}): compiled into the slot's
     pre-decoded closure, so a counted slot stays on the fast path and
     inside blocks; the probe slow path bumps them too. *)
  counters : (int, (unit -> unit) array) Hashtbl.t;
  (* Block metadata, one byte per text slot, built lazily by [run_to]
     ([Bytes.empty] until the first run).  Bits 1-7 hold [len + 1] for
     the straight-line block starting at the slot ([0]: not built yet);
     bit 0 is the slot's fetch flag, set when the fetch cannot miss if
     the slot is reached by falling through from the previous one inside
     a block: same cache line, and the previous instruction makes no
     data access.  [patch], [add_probe] and a text-changing [rollback]
     clear the lengths of every block that can cover the changed slot. *)
  mutable blocks : Bytes.t;
  (* Bumped by every change that can reshape a block (a patch, a new
     probe, a text-changing rollback); the hook dispatchers check it is
     unchanged across a hook. *)
  mutable edits : int;
  out : Buffer.t;
  mutable brk : int;
  config : config;
  (* Store/load hooks as dense counted arrays (amortized O(1)
     registration, order-preserving). *)
  mutable store_hooks : (t -> addr:int -> width:Insn.width -> unit) array;
  mutable nstore_hooks : int;
  (* The built-in store observers, made inline by the store bodies:
     the window marks of a run being recorded ([marks]) and the
     heatmap's per-page write and check counts ([heat], with one
     check-site flag per text slot in [check_slots]).  [nstore_obs]
     counts them plus the store hooks; [nstore_obs = 0] is the one
     test a store pays when nothing observes stores. *)
  mutable marks : Written.builder option;
  mutable heat : Heatmap.t option;
  mutable check_slots : Bytes.t;
  mutable nstore_obs : int;
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
  (* Hot-path profiler hooks.  The arrays belong to [prof], the
     installed {!Profile.t}; the interpreter bumps them and calls
     {!Profile.transfer} on each call and return.  Each [prof_exec]
     slot packs the control classification ([Profile.kind_*]) into its
     low two bits and the execution count above them (increment step 4),
     so one read-modify-write per instruction yields both the count and the
     branch-vs-transfer decision — no separate kind load;
     [profile_install] seeds the bits and [patch]/[rollback] keep them
     in sync with text.  An empty [prof_exec] means no profiler.  Like
     the dispatch counters, none of this touches {!stats} — the
     differential fuzz harness's fast/generic parity is preserved. *)
  mutable prof_exec : int array;
  mutable prof_taken : int array;
  mutable prof : Profile.t option;
  (* Time-series sampler hook: a countdown over observed instructions
     that fires the hook with the live instruction count every
     [samp_every] of them ([samp_every = 0]: no sampler, and [samp_left]
     is [max_int], so no block ever ends past it).  [run_to] treats
     [samp_left] as a deadline: a block runs only when it ends at or
     before the instruction the hook fires on.  Never touches
     {!stats}. *)
  mutable samp_every : int;
  mutable samp_left : int;
  mutable samp_hook : int -> unit;
  (* The one observer gate.  [paused] is raised by [without_observers]
     around replay re-execution; [observed] caches "a profiler or
     sampler is installed and not paused", so a run with neither pays
     exactly one boolean test per block (or single step). *)
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

(* Longest block [run_to] forms; [len + 1] must fit bits 1-7 of a
   [blocks] byte. *)
let max_block = 126

(* Forget every block that can cover slot [i]: those starting at most
   [max_block - 1] slots before it.  Fetch flags stay; a block that
   covers a changed slot recomputes its flags when it re-forms. *)
let unblock t i =
  t.edits <- t.edits + 1;
  let b = t.blocks in
  if Bytes.length b > 0 then
    for k = max 0 (i - max_block + 1) to i do
      Bytes.unsafe_set b k
        (Char.unsafe_chr (Char.code (Bytes.unsafe_get b k) land 1))
    done

let add_probe t addr f =
  let i = text_index t addr in
  (* Probes fire in registration order (append keeps it). *)
  t.probes.(i) <- Array.append t.probes.(i) [| f |];
  unblock t i

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

let profile_install t p =
  let exec = Profile.exec_array p and taken = Profile.taken_array p in
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
  t.prof <- Some p;
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

(* Sampler countdown after [k] observed instructions, the last of which
   just completed; [k] never exceeds [samp_left], so the hook fires on
   exactly every [samp_every]th one. *)
let[@inline] samp_count t k =
  let left = t.samp_left - k in
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
   against the fall-through to detect taken-ness; a call or return
   hands its destination and the machine totals to the profile's
   shadow stack. *)
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
    else
      match t.prof with
      | Some p ->
        Profile.transfer p ~slot:idx ~kind:k ~pc:t.pc ~instrs:t.ninstrs
          ~cycles:t.cycles
      | None -> ()

(* Post-step work of whichever observers are installed, for the
   executed slot [idx]; [step] calls it only while [observed]. *)
let[@inline] observe t idx =
  if Array.length t.prof_exec > 0 then prof_step t idx;
  if t.samp_every > 0 then samp_count t 1

(* Cache probe, inlined from {!Cache.access} and charging the miss
   penalty: runs once per data access and once per fetch that can miss.
   Only misses are counted here; [stats] derives the hits. *)
let[@inline] cache_access t addr =
  let c = t.cache in
  let line_addr = uns addr lsr c.Cache.line_bits in
  let idx =
    if c.Cache.mask >= 0 then line_addr land c.Cache.mask
    else line_addr mod c.Cache.lines
  in
  if Array.unsafe_get c.Cache.tags idx <> line_addr then begin
    c.Cache.misses <- c.Cache.misses + 1;
    Array.unsafe_set c.Cache.tags idx line_addr;
    Bytes.unsafe_set c.Cache.dirty (idx lsr Cache.chunk_bits) '\001';
    t.cycles <- t.cycles + t.config.miss_penalty
  end

let data_access t addr =
  t.ndata <- t.ndata + 1;
  cache_access t addr

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

(* Allocation-free flag update: builds the packed bits directly, with
   no record per cc-setting instruction. *)
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

(* Hooks run inside blocks, which assume straight-line control and a
   fixed text: a hook must not halt the machine, patch text, add a
   probe or move the pc. *)
let run_hooks t kind hs n ea width =
  let pc = t.pc and halted = t.halted and edits = t.edits in
  for i = 0 to n - 1 do
    (Array.unsafe_get hs i) t ~addr:ea ~width
  done;
  if t.pc <> pc || t.halted != halted || t.edits <> edits then
    invalid_arg
      ("Cpu: a " ^ kind
     ^ " hook halted the machine, patched text, added a probe or moved the pc")

let run_load_hooks t ea width =
  t.nload_hook_dispatches <- t.nload_hook_dispatches + t.nload_hooks;
  run_hooks t "load" t.load_hooks t.nload_hooks ea width

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

(* Mark the word at normalized address [a] in a window's marks: one
   [lor] into the cached row when [a] is on the last page marked. *)
let[@inline] mark b a =
  let page = a asr Written.page_bits in
  let row = if page = b.Written.page then b.Written.row else Written.row b page in
  let blk = (a lsr Written.block_bits) land Written.row_mask in
  Array.unsafe_set row blk
    (Array.unsafe_get row blk lor (1 lsl ((a asr 2) land Written.word_mask)))

(* Count a store at [ea] on its page, and a check too when the store's
   slot is a check site. *)
let[@inline] heat_count t hm ea =
  let key = (ea lsr Memory.page_bits) land hm.Heatmap.key_mask in
  let l2 = Array.unsafe_get hm.Heatmap.dir (key lsr Heatmap.l2_bits) in
  let l2 = if Array.length l2 = 0 then Heatmap.l2 hm (key lsr Heatmap.l2_bits) else l2 in
  let i = (key land Heatmap.l2_mask) lsl Heatmap.cell_bits in
  Array.unsafe_set l2 i (Array.unsafe_get l2 i + 1);
  if Bytes.unsafe_get t.check_slots ((t.pc - t.text_base) lsr 2) <> '\000' then
    Array.unsafe_set l2 (i + 1) (Array.unsafe_get l2 (i + 1) + 1)

(* Every store observer, for a store of [width] at [ea] that just
   completed (the pc is still the store's): the marks while recording,
   the heat counts while observing, then the hooks.  Each observer
   counts as one hook dispatch. *)
let[@inline] observe_store t ea width =
  t.nstore_hook_dispatches <- t.nstore_hook_dispatches + t.nstore_obs;
  (match t.marks with
  | Some b -> (
    mark b ea;
    match width with
    | Insn.Double -> mark b (norm (ea + 4))
    | Insn.Word | Insn.Byte | Insn.Half -> ())
  | None -> ());
  (match t.heat with
  | Some hm when not t.paused -> heat_count t hm ea
  | Some _ | None -> ());
  if t.nstore_hooks <> 0 then run_hooks t "store" t.store_hooks t.nstore_hooks ea width

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
  if t.nstore_obs <> 0 then observe_store t ea Insn.Word

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
  if t.nstore_obs <> 0 then observe_store t ea Insn.Double

let st_byte t ea rd =
  t.nstores <- t.nstores + 1;
  add_cycles t t.config.store_cycles;
  data_access t ea;
  (try Memory.write_byte t.mem ea (rget t rd land 0xFF)
   with Memory.Misaligned { addr; width } ->
     faultf t "misaligned %d-byte store at 0x%x" width (Word.to_unsigned addr));
  if t.nstore_obs <> 0 then observe_store t ea Insn.Byte

let st_half t ea rd =
  t.nstores <- t.nstores + 1;
  add_cycles t t.config.store_cycles;
  data_access t ea;
  (try Memory.write_half t.mem ea (rget t rd land 0xFFFF)
   with Memory.Misaligned { addr; width } ->
     faultf t "misaligned %d-byte store at 0x%x" width (Word.to_unsigned addr));
  if t.nstore_obs <> 0 then observe_store t ea Insn.Half

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
      ndata = 0;
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
      counters = Hashtbl.create 16;
      blocks = Bytes.empty;
      edits = 0;
      out = Buffer.create 256;
      brk = (image.data_limit + 7) land lnot 7;
      config;
      store_hooks = [||];
      nstore_hooks = 0;
      marks = None;
      heat = None;
      check_slots = Bytes.empty;
      nstore_obs = 0;
      load_hooks = [||];
      nload_hooks = 0;
      code = Arr.mapi (compile image.text_base) text;
      text_version = 0;
      text_snap = None;
      prof_exec = [||];
      prof_taken = [||];
      prof = None;
      samp_every = 0;
      samp_left = max_int;
      samp_hook = ignore;
      paused = false;
      observed = false;
    }
  in
  Windows.set t.win Reg.sp 0x7FFF_FF00;
  t

let no_counters : (unit -> unit) array = [||]

let counters_at t i =
  match Hashtbl.find_opt t.counters i with Some cs -> cs | None -> no_counters

(* Fire slot [i]'s counters; they count as probe dispatches. *)
let[@inline] count t cs =
  t.nprobe_dispatches <- t.nprobe_dispatches + Array.length cs;
  for k = 0 to Array.length cs - 1 do
    (Array.unsafe_get cs k) ()
  done

(* Slot [i]'s pre-decoded closure, with its counters compiled in. *)
let recompile t i insn =
  let body = compile t.text_base i insn in
  let cs = counters_at t i in
  t.code.(i) <-
    (if cs == no_counters then body
     else
       fun t ->
         count t cs;
         body t)

let add_counter t addr f =
  let i = text_index t addr in
  Hashtbl.replace t.counters i (Array.append (counters_at t i) [| f |]);
  recompile t i t.text.(i)

let patch t addr insn =
  let i = text_index t addr in
  t.text.(i) <- insn;
  recompile t i insn;
  prof_repatch t i insn;
  unblock t i;
  t.text_version <- t.text_version + 1

(* One fetch that can miss: a tag probe charging any miss, then the
   instruction's base cycle. *)
let[@inline] fetch t =
  cache_access t t.pc;
  t.ninstrs <- t.ninstrs + 1;
  t.cycles <- t.cycles + 1

let step t =
  let off = t.pc - t.text_base in
  let idx = off lsr 2 in
  (* A negative [off] shifts to a huge positive [idx], so one unsigned
     comparison covers both underflow and overflow. *)
  if off land 3 <> 0 || idx >= Array.length t.text then
    faultf t "pc 0x%x outside text" (Word.to_unsigned t.pc);
  let ps = Array.unsafe_get t.probes idx in
  if ps == no_probes then begin
    fetch t;
    (Array.unsafe_get t.code idx) t;
    if t.observed then observe t idx
  end
  else begin
    count t (counters_at t idx);
    t.nprobe_dispatches <- t.nprobe_dispatches + Array.length ps;
    for i = 0 to Array.length ps - 1 do
      (Array.unsafe_get ps i) t
    done;
    (* A probe may patch text or move the pc (breakpoint callbacks);
       re-fetch through the checked path and fall back to the generic
       interpreter. *)
    let eidx = text_index t t.pc in
    let insn = Array.unsafe_get t.text eidx in
    fetch t;
    execute t insn (t.pc + 4);
    if t.observed then observe t eidx
  end

let halt t code = t.halted <- Some code

let is_data_access = function
  | Insn.Ld _ | Insn.St _ -> true
  | _ -> false

(* Form the block starting at slot [idx] and return its length: up to
   and including the first branch, call or jmpl, stopping before any
   trap or probed slot ([0] when slot [idx] is one).  Also sets the
   fetch flag of every slot after the first. *)
let build_block t idx =
  let text = t.text and b = t.blocks in
  let n = Array.length text in
  let rec scan j =
    if j >= n || j - idx >= max_block || Array.unsafe_get t.probes j != no_probes
    then j - idx
    else
      match Array.unsafe_get text j with
      | Insn.Trap _ -> j - idx
      | Insn.Branch _ | Insn.Call _ | Insn.Jmpl _ -> j - idx + 1
      | _ -> scan (j + 1)
  in
  let len = scan idx in
  let line j = (t.text_base + (j lsl 2)) lsr t.cache.Cache.line_bits in
  for j = idx + 1 to idx + len - 1 do
    let can_miss = line j <> line (j - 1) || is_data_access text.(j - 1) in
    let len_bits = Char.code (Bytes.get b j) land lnot 1 in
    Bytes.set b j (Char.chr (len_bits lor if can_miss then 0 else 1))
  done;
  Bytes.set b idx
    (Char.chr (((len + 1) lsl 1) lor (Char.code (Bytes.get b idx) land 1)));
  len

(* The fetch of slot [j], reached by falling through inside a block.
   Only a block's first fetch probes the cache unconditionally: a later
   one is a guaranteed hit in the direct-mapped cache when its fetch
   flag is set, because the previous instruction was fetched from the
   same line and touched no data.  Every instruction still bumps
   [ninstrs] and its base cycle before it executes, so a fault or a hook
   sees exactly what [step] would show it. *)
let[@inline] fetch_next t b j =
  if Char.code (Bytes.unsafe_get b j) land 1 = 0 then fetch t
  else begin
    t.ninstrs <- t.ninstrs + 1;
    t.cycles <- t.cycles + 1
  end

(* Run the [len]-instruction block at slot [idx]. *)
let run_block t idx len =
  let code = t.code and b = t.blocks in
  fetch t;
  (Array.unsafe_get code idx) t;
  for j = idx + 1 to idx + len - 1 do
    fetch_next t b j;
    (Array.unsafe_get code j) t
  done

(* [run_block] for a profiled run: each slot but the last, which is
   straight-line ([kind_plain]) as a block ends at its first branch,
   call or jmpl, bumps its exec count once it completes, so a raise
   leaves exactly the counts of the slots that ran; the last is
   [prof_step]'s.  A second body, because counting in a separate pass
   after the block measured slower on profiled runs (DESIGN.md §6). *)
let run_counted_block t idx len =
  let code = t.code and b = t.blocks and c = t.prof_exec in
  fetch t;
  (Array.unsafe_get code idx) t;
  for j = idx + 1 to idx + len - 1 do
    Array.unsafe_set c (j - 1) (Array.unsafe_get c (j - 1) + 4);
    fetch_next t b j;
    (Array.unsafe_get code j) t
  done

(* The one run loop; recording and replay stop it at checkpoint
   boundaries.  [halted] can only flip inside a trap handler or probe,
   which never run inside a block, so the loop's tests — halted, fuel,
   bounds, block length, observers — are paid once per block.  A block
   runs only when it ends at or before [insn] and, while the sampler
   observes, at or before the instruction the sampler fires on;
   otherwise, and for probed slots and traps, the loop falls back to
   [step]. *)
let run_to t ~insn =
  let n = Array.length t.text in
  if Bytes.length t.blocks <> n then t.blocks <- Bytes.make n '\000';
  while t.halted == None && t.ninstrs < insn do
    let off = t.pc - t.text_base in
    let idx = off lsr 2 in
    if off land 3 <> 0 || idx >= n then step t
    else begin
      let m = Char.code (Bytes.unsafe_get t.blocks idx) lsr 1 in
      let len = if m = 0 then build_block t idx else m - 1 in
      if len = 0 || t.ninstrs + len > insn then step t
      else if not t.observed then run_block t idx len
      else if len > t.samp_left then step t
      else begin
        (* An observed block: the profile and the sampler see exactly
           what stepping would show them. *)
        let start = t.ninstrs in
        let profiled = Array.length t.prof_exec > 0 in
        (try
           if profiled then run_counted_block t idx len
           else run_block t idx len
         with e ->
           (* The instructions before the raising one completed; it
              bumped [ninstrs] but, as under [step], is not observed.
              The sample lies past the block, so it cannot fire. *)
           if t.samp_every > 0 then
             t.samp_left <- t.samp_left - (t.ninstrs - start - 1);
           raise e);
        if profiled then prof_step t (idx + len - 1);
        if t.samp_every > 0 then samp_count t len
      end
    end
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
   packed into the view, and adjacent checkpoints share every untouched
   page, as cache snapshots share every tag chunk no miss changed.  The
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
  cp_ndata : int;
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
    cp_ndata = t.ndata;
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
  t.ndata <- cp.cp_ndata;
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
        recompile t i insn;
        prof_repatch t i insn;
        unblock t i
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
  t.nstore_hooks <- t.nstore_hooks + 1;
  t.nstore_obs <- t.nstore_obs + 1

let remove_store_hook t hook =
  let hs = t.store_hooks and n = t.nstore_hooks in
  let rec find i = if i = n || hs.(i) == hook then i else find (i + 1) in
  let i = find 0 in
  if i < n then begin
    Array.blit hs (i + 1) hs i (n - i - 1);
    t.nstore_hooks <- n - 1;
    t.nstore_obs <- t.nstore_obs - 1
  end

let set_marks t marks =
  let was = Option.is_some t.marks and now = Option.is_some marks in
  t.marks <- marks;
  t.nstore_obs <- t.nstore_obs + Bool.to_int now - Bool.to_int was

let heat_install t hm ~check_site =
  if Heatmap.page_bytes hm <> Memory.page_bytes then
    invalid_arg "Cpu.heat_install: heatmap pages differ from memory pages";
  if Option.is_some t.heat then invalid_arg "Cpu.heat_install: already installed";
  t.check_slots <-
    Bytes.init (Array.length t.text) (fun i ->
        if check_site (t.text_base + (i lsl 2)) then '\001' else '\000');
  t.heat <- Some hm;
  t.nstore_obs <- t.nstore_obs + 1

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
    cache_hits = t.ninstrs + t.ndata - Cache.misses t.cache;
    cache_misses = Cache.misses t.cache;
    window_spills = Windows.spills t.win;
  }
