(* Provenance journal.  Analysis decisions land in a hashtable keyed
   by store origin; [record_site] joins them into the slot-ordered site
   list when the plan is laid out.  Runtime patch/region events are
   plain growing lists (bounded in practice by the number of watch
   toggles and loop entries; the bench harness runs with audit off). *)

type verdict =
  | Kept
  | Sym_matched of { pseudo : string; symtab_entry : string }
  | Loop_invariant of { loop_id : int; bexpr : string; level : string }
  | Loop_range of {
      loop_id : int;
      lo : string;
      hi : string;
      levels : string;
    }

let verdict_name = function
  | Kept -> "kept"
  | Sym_matched _ -> "sym_matched"
  | Loop_invariant _ -> "loop_invariant"
  | Loop_range _ -> "loop_range"

let all_verdict_names = [ "kept"; "sym_matched"; "loop_invariant"; "loop_range" ]

type site = {
  a_slot : int;
  a_origin : int;
  a_fn : string;
  a_write_type : string;
  a_verdict : verdict;
}

type patch_kind = Patch_inserted | Patch_removed

type patch_event = {
  p_kind : patch_kind;
  p_pseudo : string;
  p_origin : int;
  p_insn : int;
}

type region_kind = Region_created | Region_deleted | Region_refused

type region_event = {
  rg_kind : region_kind;
  rg_lo : int;
  rg_hi : int;
  rg_why : string;
  rg_insn : int;
}

type lattice_binding = {
  lb_fn : string;
  lb_loop : int;
  lb_var : string;
  lb_bounds : string;
}

type replay_kind =
  | Checkpoint_taken
  | Checkpoint_evicted
  | State_restored
  | Replay_finished

let replay_kind_name = function
  | Checkpoint_taken -> "checkpoint_taken"
  | Checkpoint_evicted -> "checkpoint_evicted"
  | State_restored -> "state_restored"
  | Replay_finished -> "replay_finished"

type replay_event = {
  rp_kind : replay_kind;
  rp_insn : int;
  rp_detail : string;
}

type t = {
  on : unit -> bool;
  decisions : (int, verdict) Hashtbl.t;  (* origin -> pending verdict *)
  mutable sites : site list;  (* newest first *)
  mutable patches : patch_event list;  (* newest first *)
  mutable regions : region_event list;  (* newest first *)
  mutable lattice : lattice_binding list;  (* newest first *)
  mutable replay : replay_event list;  (* newest first *)
  mutable tags : (string * string) list;
}

let create ?(enabled = fun () -> true) () =
  {
    on = enabled;
    decisions = Hashtbl.create 64;
    sites = [];
    patches = [];
    regions = [];
    lattice = [];
    replay = [];
    tags = [];
  }

let enabled t = t.on ()

let set_tag t k v = t.tags <- (k, v) :: List.remove_assoc k t.tags

let sym_matched t ~origin ~pseudo ~symtab_entry =
  if t.on () then
    Hashtbl.replace t.decisions origin (Sym_matched { pseudo; symtab_entry })

let loop_invariant t ~origin ~loop_id ~bexpr ~level =
  if t.on () then
    Hashtbl.replace t.decisions origin (Loop_invariant { loop_id; bexpr; level })

let loop_range t ~origin ~loop_id ~lo ~hi ~levels =
  if t.on () then
    Hashtbl.replace t.decisions origin (Loop_range { loop_id; lo; hi; levels })

let lattice t ~fn ~loop_id ~var ~bounds =
  if t.on () then
    t.lattice <-
      { lb_fn = fn; lb_loop = loop_id; lb_var = var; lb_bounds = bounds }
      :: t.lattice

let record_site t ~slot ~origin ~fn ~write_type =
  if t.on () then begin
    let verdict =
      match Hashtbl.find_opt t.decisions origin with
      | Some v -> v
      | None -> Kept
    in
    t.sites <-
      { a_slot = slot; a_origin = origin; a_fn = fn; a_write_type = write_type;
        a_verdict = verdict }
      :: t.sites
  end

let patch t ~kind ~pseudo ~origin ~insn =
  if t.on () then
    t.patches <-
      { p_kind = kind; p_pseudo = pseudo; p_origin = origin; p_insn = insn }
      :: t.patches

let region t ~kind ~lo ~hi ~why ~insn =
  if t.on () then
    t.regions <-
      { rg_kind = kind; rg_lo = lo; rg_hi = hi; rg_why = why; rg_insn = insn }
      :: t.regions

let replay t ~kind ~insn ~detail =
  if t.on () then
    t.replay <- { rp_kind = kind; rp_insn = insn; rp_detail = detail } :: t.replay

(* --- reports ----------------------------------------------------------------- *)

let schema_version = "dbp-audit/2"

type report = {
  a_schema : string;
  a_tags : (string * string) list;
  a_sites : site list;
  a_patches : patch_event list;
  a_regions : region_event list;
  a_lattice : lattice_binding list;
  a_replay : replay_event list;
  a_summary : (string * int) list;
}

let summary_of_sites sites =
  List.map
    (fun name ->
      ( name,
        List.length
          (List.filter (fun s -> verdict_name s.a_verdict = name) sites) ))
    all_verdict_names

let summary t = summary_of_sites t.sites

let merge_summaries summaries =
  List.map
    (fun name ->
      ( name,
        List.fold_left
          (fun acc s ->
            acc + Option.value ~default:0 (List.assoc_opt name s))
          0 summaries ))
    all_verdict_names

let report t =
  let sites =
    List.sort (fun a b -> compare a.a_slot b.a_slot) (List.rev t.sites)
  in
  {
    a_schema = schema_version;
    a_tags = List.sort (fun (a, _) (b, _) -> String.compare a b) t.tags;
    a_sites = sites;
    a_patches = List.rev t.patches;
    a_regions = List.rev t.regions;
    a_lattice = List.rev t.lattice;
    a_replay = List.rev t.replay;
    a_summary = summary_of_sites sites;
  }

(* --- explain ------------------------------------------------------------------ *)

(* Only unambiguous numerals count as addresses, so a pseudo register
   that happens to spell a hex digit string (e.g. "c") still resolves
   by name. *)
let parse_addr s =
  let is_hex =
    String.length s > 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X')
  in
  let is_dec = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s in
  if is_hex || is_dec then int_of_string_opt s else None

let site_pseudo s =
  match s.a_verdict with Sym_matched { pseudo; _ } -> Some pseudo | _ -> None

let find_sites r target =
  let by_addr =
    match parse_addr target with
    | Some a -> List.filter (fun s -> s.a_origin = a) r.a_sites
    | None -> []
  in
  if by_addr <> [] then by_addr
  else List.filter (fun s -> site_pseudo s = Some target) r.a_sites

let explain_site r b (s : site) =
  let p fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  p "site %d: store at 0x%x in %s (%s write)\n" s.a_slot s.a_origin s.a_fn
    s.a_write_type;
  (match s.a_verdict with
  | Kept ->
    p "  verdict: kept — no elimination argument applied; the write\n";
    p "  check runs inline at every execution of this store.\n"
  | Sym_matched { pseudo; symtab_entry } ->
    p "  verdict: sym_matched (§4.2) — address expression matched the\n";
    p "  symbol-table entry:\n";
    p "    %s\n" symtab_entry;
    p "  check eliminated; monitoring pseudo %S re-inserts it via a\n" pseudo;
    p "  Kessler patch (PreMonitor).\n"
  | Loop_invariant { loop_id; bexpr; level } ->
    p "  verdict: loop_invariant (§4.3) — address invariant in loop %d\n"
      loop_id;
    p "  at lattice level %s; covered by one pre-header check of\n" level;
    p "    %s\n" bexpr
  | Loop_range { loop_id; lo; hi; levels } ->
    p "  verdict: loop_range (§4.3, Fig. 4) — address sweeps loop %d\n" loop_id;
    p "  over the range (bound levels %s):\n" levels;
    p "    lo = %s\n" lo;
    p "    hi = %s\n" hi);
  let loop_id =
    match s.a_verdict with
    | Loop_invariant { loop_id; _ } | Loop_range { loop_id; _ } -> Some loop_id
    | _ -> None
  in
  (match loop_id with
  | Some id ->
    let bindings =
      List.filter (fun l -> l.lb_loop = id && l.lb_fn = s.a_fn) r.a_lattice
    in
    if bindings <> [] then begin
      p "  lattice fixpoint (loop %d):\n" id;
      List.iter (fun l -> p "    %-12s : %s\n" l.lb_var l.lb_bounds) bindings
    end
  | None -> ());
  let patches = List.filter (fun e -> e.p_origin = s.a_origin) r.a_patches in
  if patches <> [] then begin
    p "  patch history:\n";
    List.iter
      (fun e ->
        p "    insn %-10d %s (pseudo %s)\n" e.p_insn
          (match e.p_kind with
          | Patch_inserted -> "check re-inserted"
          | Patch_removed -> "check removed")
          e.p_pseudo)
      patches
  end

let explain r target =
  match find_sites r target with
  | [] -> None
  | sites ->
    let b = Buffer.create 256 in
    List.iteri
      (fun i s ->
        if i > 0 then Buffer.add_char b '\n';
        explain_site r b s)
      sites;
    Some (Buffer.contents b)

(* --- json --------------------------------------------------------------------- *)

open Export

let verdict_to_json = function
  | Kept -> Obj [ ("verdict", Str "kept") ]
  | Sym_matched { pseudo; symtab_entry } ->
    Obj
      [
        ("verdict", Str "sym_matched");
        ("pseudo", Str pseudo);
        ("symtab_entry", Str symtab_entry);
      ]
  | Loop_invariant { loop_id; bexpr; level } ->
    Obj
      [
        ("verdict", Str "loop_invariant");
        ("loop", Int loop_id);
        ("bexpr", Str bexpr);
        ("level", Str level);
      ]
  | Loop_range { loop_id; lo; hi; levels } ->
    Obj
      [
        ("verdict", Str "loop_range");
        ("loop", Int loop_id);
        ("lo", Str lo);
        ("hi", Str hi);
        ("levels", Str levels);
      ]

let site_to_json s =
  Obj
    [
      ("slot", Int s.a_slot);
      ("origin", Int s.a_origin);
      ("fn", Str s.a_fn);
      ("write_type", Str s.a_write_type);
      ("provenance", verdict_to_json s.a_verdict);
    ]

let patch_to_json e =
  Obj
    [
      ( "event",
        Str
          (match e.p_kind with
          | Patch_inserted -> "patch_inserted"
          | Patch_removed -> "patch_removed") );
      ("pseudo", Str e.p_pseudo);
      ("origin", Int e.p_origin);
      ("insn", Int e.p_insn);
    ]

let region_to_json e =
  Obj
    [
      ( "event",
        Str
          (match e.rg_kind with
          | Region_created -> "region_created"
          | Region_deleted -> "region_deleted"
          | Region_refused -> "region_refused") );
      ("lo", Int e.rg_lo);
      ("hi", Int e.rg_hi);
      ("why", Str e.rg_why);
      ("insn", Int e.rg_insn);
    ]

let lattice_to_json l =
  Obj
    [
      ("fn", Str l.lb_fn);
      ("loop", Int l.lb_loop);
      ("var", Str l.lb_var);
      ("bounds", Str l.lb_bounds);
    ]

let replay_to_json e =
  Obj
    [
      ("event", Str (replay_kind_name e.rp_kind));
      ("insn", Int e.rp_insn);
      ("detail", Str e.rp_detail);
    ]

let to_json r =
  Obj
    [
      ("schema", Str r.a_schema);
      ("tags", Obj (List.map (fun (k, v) -> (k, Str v)) r.a_tags));
      ("summary", Obj (List.map (fun (k, v) -> (k, Int v)) r.a_summary));
      ("sites", List (List.map site_to_json r.a_sites));
      ("patches", List (List.map patch_to_json r.a_patches));
      ("regions", List (List.map region_to_json r.a_regions));
      ("lattice", List (List.map lattice_to_json r.a_lattice));
      ("replay", List (List.map replay_to_json r.a_replay));
    ]

let to_json_string ?indent r = json_to_string ?indent (to_json r)
