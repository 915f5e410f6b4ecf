(* Hot-path profiler: basic-block discovery over a machine-neutral
   instruction classification, direct-indexed exec/taken counter arrays
   bumped by the interpreter, and a shadow call stack fed by transfer
   events.  See profile.mli for the cost contract. *)

let kind_plain = 0
let kind_branch = 1
let kind_call = 2
let kind_ret = 3

let schema_version = "dbp-profile/1"

type t = {
  text_base : int;
  info : (int * int) array;        (* (kind, static target idx or -1) *)
  exec : int array;
  taken : int array;
  block_of : int array;            (* insn idx -> block id *)
  block_lo : int array;            (* block id -> leader idx *)
  block_hi : int array;            (* block id -> last idx (inclusive) *)
  (* Function table; grows when an unknown call target is entered.
     Ids by entry slot ([-1]: none yet), so a call resolves its callee
     with one array read; entries outside text are hashed. *)
  mutable fn_name : string array;
  mutable nfns : int;
  fn_at : int array;
  fn_outside : (int, int) Hashtbl.t;
  static_fns : (int * int) array;  (* (entry addr, id), sorted, static *)
  (* Per call slot: the destination pc its callee was last resolved
     for ([-1]: never), and that callee's id. *)
  slot_pc : int array;
  slot_fn : int array;
  (* The call tree, one node per distinct call path, as parallel int
     arrays, so a call or a return writes no pointer.  Node 0 is the
     root (the entry function), its own parent; a child is made after
     its parent, so it has a larger id.  A node counts its entries and
     the instructions and cycles run with it on top of the stack; the
     per-function table and the folded stacks are read off the tree
     (see [report]), so the tree is the shadow stack too: [cur] is the
     top frame's node and [depth] the stack's depth.  A node's children
     form a list through [nd_next] headed by [nd_kids] ([-1] ends it),
     the child found last at its front (see [child]). *)
  mutable nd_fn : int array;
  mutable nd_parent : int array;
  mutable nd_calls : int array;
  mutable nd_self_i : int array;
  mutable nd_self_c : int array;
  mutable nd_kids : int array;
  mutable nd_next : int array;
  mutable nnodes : int;
  mutable cur : int;
  mutable depth : int;
  mutable last_i : int;            (* machine totals at last flush *)
  mutable last_c : int;
  mutable ntransfers : int;
  (* Perfetto counter sampling. *)
  clock : unit -> float;
  mutable next_sample : int;
  mutable samples : (float * int * int * int) list;  (* newest first *)
}

let exec_array t = t.exec

(* [exec] slots are packed: count in the bits above the interpreter's
   two kind bits (see [exec_array]'s doc), so counts decode as [lsr 2]. *)
let exec_count t i = t.exec.(i) lsr 2
let profiled_instrs t = Array.fold_left (fun acc v -> acc + (v lsr 2)) 0 t.exec
let taken_array t = t.taken
let transfers t = t.ntransfers

(* ---------- construction ---------- *)

let grow a len init =
  if Array.length a >= len then a
  else begin
    let b = Array.make (max len (2 * Array.length a + 8)) init in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* The text slot at [addr], or [-1] outside text (a negative offset
   shifts to a huge slot). *)
let slot_of t addr =
  let off = addr - t.text_base in
  if off land 3 = 0 && off lsr 2 < Array.length t.fn_at then off lsr 2 else -1

let register_fn t addr name =
  let slot = slot_of t addr in
  let known =
    if slot >= 0 then t.fn_at.(slot)
    else Option.value ~default:(-1) (Hashtbl.find_opt t.fn_outside addr)
  in
  if known >= 0 then known
  else begin
    let id = t.nfns in
    t.fn_name <- grow t.fn_name (id + 1) "";
    t.fn_name.(id) <- name;
    t.nfns <- id + 1;
    if slot >= 0 then t.fn_at.(slot) <- id else Hashtbl.add t.fn_outside addr id;
    id
  end

(* Greatest static function entry <= pc; the lowest one when pc
   precedes them all ([create] registers at least one). *)
let fn_of_pc t pc =
  let a = t.static_fns in
  let lo = ref 0 and hi = ref (Array.length a - 1) and best = ref (snd a.(0)) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let addr, id = a.(mid) in
    if addr <= pc then begin best := id; lo := mid + 1 end
    else hi := mid - 1
  done;
  !best

(* Instructions between Perfetto counter samples. *)
let sample_every = 65536

let create ?(clock = fun () -> 0.) ~text_base ~info ~functions ~entry () =
  let n = Array.length info in
  let leader = Array.make (max n 1) false in
  let mark i = if i >= 0 && i < n then leader.(i) <- true in
  if n > 0 then leader.(0) <- true;
  mark ((entry - text_base) asr 2);
  List.iter (fun (addr, _) -> mark ((addr - text_base) asr 2)) functions;
  Array.iteri
    (fun i (k, tgt) ->
      if k = kind_branch then begin mark tgt; mark (i + 1) end
      else if k = kind_call then begin
        (* The word after a call is dead padding; the return point is
           call + 8.  Both start fresh blocks so neither gets charged
           to the caller's pre-call block. *)
        mark tgt; mark (i + 1); mark (i + 2)
      end
      else if k = kind_ret then mark (i + 1))
    info;
  let block_of = Array.make (max n 1) 0 in
  let nblocks = ref 0 in
  for i = 0 to n - 1 do
    if leader.(i) then incr nblocks;
    block_of.(i) <- !nblocks - 1
  done;
  let nb = max !nblocks 1 in
  let block_lo = Array.make nb 0 and block_hi = Array.make nb 0 in
  for i = 0 to n - 1 do
    let b = block_of.(i) in
    if leader.(i) then block_lo.(b) <- i;
    block_hi.(b) <- i
  done;
  let t =
    {
      text_base;
      info;
      exec = Array.make (max n 1) 0;
      taken = Array.make (max n 1) 0;
      block_of;
      block_lo;
      block_hi;
      fn_name = [||];
      nfns = 0;
      fn_at = Array.make n (-1);
      fn_outside = Hashtbl.create 1;
      static_fns = [||];
      slot_pc = Array.make n (-1);
      slot_fn = Array.make n 0;
      nd_fn = Array.make 64 0;
      nd_parent = Array.make 64 0;
      nd_calls = Array.make 64 0;
      nd_self_i = Array.make 64 0;
      nd_self_c = Array.make 64 0;
      nd_kids = Array.make 64 (-1);
      nd_next = Array.make 64 (-1);
      nnodes = 1;
      cur = 0;
      depth = 1;
      last_i = 0;
      last_c = 0;
      ntransfers = 0;
      clock;
      next_sample = sample_every;
      samples = [];
    }
  in
  (* Register static functions sorted by entry address so ids are
     deterministic, then root the tree at the entry function — under
     its hex address, as for any unnamed callee, when no function is
     given. *)
  let fns =
    match functions with
    | [] -> [ (entry, Printf.sprintf "0x%x" entry) ]
    | _ -> List.sort_uniq compare functions
  in
  let statics =
    List.map (fun (addr, name) -> (addr, register_fn t addr name)) fns
  in
  let t = { t with static_fns = Array.of_list statics } in
  t.nd_fn.(0) <- fn_of_pc t entry;
  t.nd_calls.(0) <- 1;
  t

(* ---------- shadow stack ---------- *)

(* Charge the instructions and cycles since the last transfer to the
   top frame's node.  [cur] is always a made node. *)
let[@inline] flush t ~instrs ~cycles =
  let k = t.cur in
  Array.unsafe_set t.nd_self_i k (Array.unsafe_get t.nd_self_i k + instrs - t.last_i);
  Array.unsafe_set t.nd_self_c k (Array.unsafe_get t.nd_self_c k + cycles - t.last_c);
  t.last_i <- instrs;
  t.last_c <- cycles

let take_sample t ~instrs ~cycles =
  t.samples <- (t.clock (), instrs, cycles, t.depth) :: t.samples;
  t.next_sample <- instrs + sample_every

(* The function a call from text slot [slot] enters at [pc]: resolved
   once per slot and destination (by the id [pc]'s slot holds, an
   unnamed entry registered the first time), then read back. *)
let resolve t ~slot pc =
  let at = slot_of t pc in
  let id = if at >= 0 then Array.unsafe_get t.fn_at at else -1 in
  let id = if id >= 0 then id else register_fn t pc (Printf.sprintf "0x%x" pc) in
  t.slot_pc.(slot) <- pc;
  t.slot_fn.(slot) <- id;
  id

let[@inline] callee t ~slot pc =
  if t.slot_pc.(slot) = pc then Array.unsafe_get t.slot_fn slot else resolve t ~slot pc

let grow_nodes t =
  let n = t.nnodes in
  t.nd_fn <- grow t.nd_fn (n + 1) 0;
  t.nd_parent <- grow t.nd_parent (n + 1) 0;
  t.nd_calls <- grow t.nd_calls (n + 1) 0;
  t.nd_self_i <- grow t.nd_self_i (n + 1) 0;
  t.nd_self_c <- grow t.nd_self_c (n + 1) 0;
  t.nd_kids <- grow t.nd_kids (n + 1) (-1);
  t.nd_next <- grow t.nd_next (n + 1) (-1)

(* [parent]'s child for [fn], made on the first entry.  The child found
   moves to the front of the list, so a loop around one call site finds
   it with one comparison; no lookup hashes and no move writes a
   pointer. *)
let find_child t parent fn =
  let first = t.nd_kids.(parent) in
  let next = t.nd_next in
  let prev = ref first and k = ref (if first >= 0 then next.(first) else -1) in
  while !k >= 0 && Array.unsafe_get t.nd_fn !k <> fn do
    prev := !k;
    k := Array.unsafe_get next !k
  done;
  let k =
    if !k >= 0 then begin
      next.(!prev) <- next.(!k);
      !k
    end
    else begin
      if t.nnodes = Array.length t.nd_fn then grow_nodes t;
      let k = t.nnodes in
      t.nnodes <- k + 1;
      t.nd_fn.(k) <- fn;
      t.nd_parent.(k) <- parent;
      k
    end
  in
  t.nd_next.(k) <- first;
  t.nd_kids.(parent) <- k;
  k

let[@inline] child t parent fn =
  let first = Array.unsafe_get t.nd_kids parent in
  if first >= 0 && Array.unsafe_get t.nd_fn first = fn then first
  else find_child t parent fn

let transfer t ~slot ~kind ~pc ~instrs ~cycles =
  flush t ~instrs ~cycles;
  t.ntransfers <- t.ntransfers + 1;
  if kind = kind_call then begin
    let k = child t t.cur (callee t ~slot pc) in
    Array.unsafe_set t.nd_calls k (Array.unsafe_get t.nd_calls k + 1);
    t.cur <- k;
    t.depth <- t.depth + 1
  end
  else if kind = kind_ret && t.depth > 1 then begin
    t.cur <- Array.unsafe_get t.nd_parent t.cur;
    t.depth <- t.depth - 1
  end;
  if instrs >= t.next_sample then take_sample t ~instrs ~cycles

(* ---------- reporting ---------- *)

type fn_report = {
  fr_name : string;
  fr_calls : int;
  fr_excl_instrs : int;
  fr_excl_cycles : int;
  fr_incl_instrs : int;
  fr_incl_cycles : int;
}

type block = {
  bb_id : int;
  bb_lo : int;
  bb_hi : int;
  bb_fn : string;
  bb_execs : int;
  bb_instrs : int;
  bb_check_execs : int;
  bb_check_sites : int;
}

type edge = {
  ed_from : int;
  ed_to : int;
  ed_kind : string;
  ed_count : int;
}

type backedge = {
  be_from_pc : int;
  be_to_pc : int;
  be_count : int;
  be_blocks : int list;
  be_check_execs : int;
}

type report = {
  p_schema : string;
  p_total_instrs : int;
  p_total_cycles : int;
  p_functions : fn_report list;
  p_blocks : block list;
  p_edges : edge list;
  p_backedges : backedge list;
  p_folded : (string * int) list;
}

let addr_of t i = t.text_base + (i lsl 2)

let children t k =
  let rec go k acc = if k < 0 then acc else go t.nd_next.(k) (k :: acc) in
  go t.nd_kids.(k) []

let folded_of_tree t =
  let acc = ref [] in
  let name k = t.fn_name.(t.nd_fn.(k)) in
  let rec walk k path =
    let path = if path = "" then name k else path ^ ";" ^ name k in
    if t.nd_self_i.(k) > 0 then acc := (path, t.nd_self_i.(k)) :: !acc;
    List.iter
      (fun k -> walk k path)
      (List.sort (fun a b -> compare (name a) (name b)) (children t k))
  in
  walk 0 "";
  List.sort compare !acc

let report t ?(site_checks = []) ~instrs ~cycles () =
  flush t ~instrs ~cycles;
  let n = Array.length t.info in
  let nb = Array.length t.block_lo in
  (* The function table, read off the tree: a function's calls and
     exclusive counts sum over its nodes, its inclusive counts over the
     subtrees of its outermost nodes (no ancestor runs it), so recursion
     is charged once and a live frame counts up to now.  A child's id
     exceeds its parent's, so one downward pass sums the subtrees. *)
  let nn = t.nnodes and nf = t.nfns in
  let calls = Array.make nf 0 and excl_i = Array.make nf 0 and excl_c = Array.make nf 0 in
  let sub_i = Array.sub t.nd_self_i 0 nn and sub_c = Array.sub t.nd_self_c 0 nn in
  for k = nn - 1 downto 0 do
    let fn = t.nd_fn.(k) in
    calls.(fn) <- calls.(fn) + t.nd_calls.(k);
    excl_i.(fn) <- excl_i.(fn) + t.nd_self_i.(k);
    excl_c.(fn) <- excl_c.(fn) + t.nd_self_c.(k);
    if k > 0 then begin
      let p = t.nd_parent.(k) in
      sub_i.(p) <- sub_i.(p) + sub_i.(k);
      sub_c.(p) <- sub_c.(p) + sub_c.(k)
    end
  done;
  let incl_i = Array.make nf 0 and incl_c = Array.make nf 0 in
  let on_path = Array.make nf 0 in
  let rec outermost k =
    let fn = t.nd_fn.(k) in
    if on_path.(fn) = 0 then begin
      incl_i.(fn) <- incl_i.(fn) + sub_i.(k);
      incl_c.(fn) <- incl_c.(fn) + sub_c.(k)
    end;
    on_path.(fn) <- on_path.(fn) + 1;
    List.iter outermost (children t k);
    on_path.(fn) <- on_path.(fn) - 1
  in
  outermost 0;
  let functions =
    List.init nf (fun id ->
        {
          fr_name = t.fn_name.(id);
          fr_calls = calls.(id);
          fr_excl_instrs = excl_i.(id);
          fr_excl_cycles = excl_c.(id);
          fr_incl_instrs = incl_i.(id);
          fr_incl_cycles = incl_c.(id);
        })
    |> List.filter (fun f -> f.fr_calls > 0 || f.fr_excl_instrs > 0)
    |> List.sort (fun a b ->
           match compare b.fr_excl_instrs a.fr_excl_instrs with
           | 0 -> compare a.fr_name b.fr_name
           | c -> c)
  in
  (* Per-block MRS check density from the per-site exec join. *)
  let check_e = Array.make nb 0 and check_s = Array.make nb 0 in
  List.iter
    (fun (pc, execs) ->
      let i = (pc - t.text_base) asr 2 in
      if i >= 0 && i < n then begin
        let b = t.block_of.(i) in
        check_e.(b) <- check_e.(b) + execs;
        check_s.(b) <- check_s.(b) + 1
      end)
    site_checks;
  let block_instrs = Array.make nb 0 in
  for i = 0 to n - 1 do
    let b = t.block_of.(i) in
    block_instrs.(b) <- block_instrs.(b) + exec_count t i
  done;
  let blocks = ref [] in
  for b = nb - 1 downto 0 do
    if n > 0 && exec_count t t.block_lo.(b) > 0 then
      blocks :=
        {
          bb_id = b;
          bb_lo = addr_of t t.block_lo.(b);
          bb_hi = addr_of t t.block_hi.(b);
          bb_fn = t.fn_name.(fn_of_pc t (addr_of t t.block_lo.(b)));
          bb_execs = exec_count t t.block_lo.(b);
          bb_instrs = block_instrs.(b);
          bb_check_execs = check_e.(b);
          bb_check_sites = check_s.(b);
        }
        :: !blocks
  done;
  (* Edges read off each executed block's terminator. *)
  let edges = ref [] in
  let add_edge from_b to_i kind count =
    if count > 0 && to_i >= 0 && to_i < n then
      edges :=
        { ed_from = from_b; ed_to = t.block_of.(to_i); ed_kind = kind;
          ed_count = count }
        :: !edges
  in
  for b = 0 to nb - 1 do
    if n > 0 then begin
      let i = t.block_hi.(b) in
      let execs = exec_count t i in
      if execs > 0 then begin
        let k, tgt = t.info.(i) in
        if k = kind_branch then begin
          add_edge b tgt "taken" t.taken.(i);
          add_edge b (i + 1) "fall" (execs - t.taken.(i))
        end
        else if k = kind_call then add_edge b tgt "call" execs
        else if k <> kind_ret then add_edge b (i + 1) "fall" execs
      end
    end
  done;
  let edges =
    List.sort
      (fun a b ->
        compare (a.ed_from, a.ed_to, a.ed_kind) (b.ed_from, b.ed_to, b.ed_kind))
      !edges
  in
  (* Hottest back-edges: taken edges whose target precedes the branch;
     the loop body is the address range [target, branch]. *)
  let backedges = ref [] in
  for i = 0 to n - 1 do
    let k, tgt = t.info.(i) in
    if k = kind_branch && tgt >= 0 && tgt <= i && t.taken.(i) > 0 then begin
      let body = ref [] and ce = ref 0 in
      for b = t.block_of.(i) downto t.block_of.(tgt) do
        body := b :: !body;
        ce := !ce + check_e.(b)
      done;
      backedges :=
        {
          be_from_pc = addr_of t i;
          be_to_pc = addr_of t tgt;
          be_count = t.taken.(i);
          be_blocks = !body;
          be_check_execs = !ce;
        }
        :: !backedges
    end
  done;
  let backedges =
    List.sort
      (fun a b ->
        match compare b.be_count a.be_count with
        | 0 -> compare a.be_from_pc b.be_from_pc
        | c -> c)
      !backedges
  in
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: tl -> x :: take (k - 1) tl
  in
  {
    p_schema = schema_version;
    p_total_instrs = instrs;
    p_total_cycles = cycles;
    p_functions = functions;
    p_blocks = !blocks;
    p_edges = edges;
    p_backedges = take 10 backedges;
    p_folded = folded_of_tree t;
  }

let folded_to_string r =
  let buf = Buffer.create 256 in
  List.iter
    (fun (path, count) ->
      if count > 0 then Buffer.add_string buf (Printf.sprintf "%s %d\n" path count))
    r.p_folded;
  Buffer.contents buf

let merge_folded profiles =
  let tbl = Hashtbl.create 64 in
  List.iter
    (List.iter (fun (path, count) ->
         Hashtbl.replace tbl path
           (count + Option.value ~default:0 (Hashtbl.find_opt tbl path))))
    profiles;
  Hashtbl.fold (fun path count acc -> (path, count) :: acc) tbl []
  |> List.sort compare

(* ---------- JSON ---------- *)

let to_json r =
  let open Export in
  Obj
    [
      ("schema", Str r.p_schema);
      ("total_instrs", Int r.p_total_instrs);
      ("total_cycles", Int r.p_total_cycles);
      ( "functions",
        List
          (List.map
             (fun f ->
               Obj
                 [
                   ("name", Str f.fr_name);
                   ("calls", Int f.fr_calls);
                   ("excl_instrs", Int f.fr_excl_instrs);
                   ("excl_cycles", Int f.fr_excl_cycles);
                   ("incl_instrs", Int f.fr_incl_instrs);
                   ("incl_cycles", Int f.fr_incl_cycles);
                 ])
             r.p_functions) );
      ( "blocks",
        List
          (List.map
             (fun b ->
               Obj
                 [
                   ("id", Int b.bb_id);
                   ("lo", Int b.bb_lo);
                   ("hi", Int b.bb_hi);
                   ("fn", Str b.bb_fn);
                   ("execs", Int b.bb_execs);
                   ("instrs", Int b.bb_instrs);
                   ("check_execs", Int b.bb_check_execs);
                   ("check_sites", Int b.bb_check_sites);
                 ])
             r.p_blocks) );
      ( "edges",
        List
          (List.map
             (fun e ->
               Obj
                 [
                   ("from", Int e.ed_from);
                   ("to", Int e.ed_to);
                   ("kind", Str e.ed_kind);
                   ("count", Int e.ed_count);
                 ])
             r.p_edges) );
      ( "hottest_backedges",
        List
          (List.map
             (fun be ->
               Obj
                 [
                   ("from_pc", Int be.be_from_pc);
                   ("to_pc", Int be.be_to_pc);
                   ("count", Int be.be_count);
                   ("blocks", List (List.map (fun b -> Int b) be.be_blocks));
                   ("check_execs", Int be.be_check_execs);
                 ])
             r.p_backedges) );
      ( "folded",
        Obj (List.map (fun (path, count) -> (path, Int count)) r.p_folded) );
    ]

let to_json_string ?indent r = Export.json_to_string ?indent (to_json r)

let chrome_counters t =
  let samples = List.rev t.samples in
  List.concat_map
    (fun (ts, instrs, cycles, depth) ->
      [
        ("sim_instrs", ts, instrs);
        ("sim_cycles", ts, cycles);
        ("call_depth", ts, depth);
      ])
    samples
