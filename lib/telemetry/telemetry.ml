(* Metrics + tracing registry.  See the interface for the model; the
   implementation notes here are about cost: every counter lives in a
   preallocated int array, so the bump functions are one bounds-checked
   array increment behind one [enabled] test — cheap enough to sit on
   the interpreter's probe path. *)

type counter =
  | Check_execs
  | Read_check_execs
  | Sym_eliminated_execs
  | Loop_eliminated_execs
  | User_hits
  | Read_hits
  | Internal_hits
  | Unattributed_hits
  | Loop_entries
  | Loop_triggers
  | Patches_inserted
  | Patches_removed
  | Regions_created
  | Regions_deleted
  | Violations
  | Seg_segments_allocated
  | Seg_words_monitored
  | Seg_arena_bytes
  | Sites_total
  | Sites_checked
  | Sites_sym_eliminated
  | Sites_loop_eliminated
  | Patched_check_execs
  | Probe_dispatches
  | Store_hook_dispatches
  | Load_hook_dispatches
  | Trap_dispatches
  (* Checkpoint/replay subsystem (v3). *)
  | Checkpoints_taken
  | Checkpoint_pages_copied
  | Checkpoint_pages_shared
  | Checkpoint_bytes
  | Checkpoint_evictions
  | Restores
  | Replayed_instrs
  (* Hot-path profiler (v4). *)
  | Profiled_instrs
  | Prof_transfers
  (* Time-series sampler / heatmap (v5). *)
  | Store_execs
  | Samples_taken
  (* Service daemon (v6). *)
  | Sessions_open
  | Commands_served
  | Hits_streamed

let all_counters =
  [
    Check_execs; Read_check_execs; Sym_eliminated_execs; Loop_eliminated_execs;
    User_hits; Read_hits; Internal_hits; Unattributed_hits; Loop_entries;
    Loop_triggers; Patches_inserted; Patches_removed; Regions_created;
    Regions_deleted; Violations; Seg_segments_allocated; Seg_words_monitored;
    Seg_arena_bytes; Sites_total; Sites_checked; Sites_sym_eliminated;
    Sites_loop_eliminated; Patched_check_execs; Probe_dispatches;
    Store_hook_dispatches; Load_hook_dispatches; Trap_dispatches;
    Checkpoints_taken; Checkpoint_pages_copied; Checkpoint_pages_shared;
    Checkpoint_bytes; Checkpoint_evictions; Restores; Replayed_instrs;
    Profiled_instrs; Prof_transfers; Store_execs; Samples_taken;
    Sessions_open; Commands_served; Hits_streamed;
  ]

let counter_name = function
  | Check_execs -> "check_execs"
  | Read_check_execs -> "read_check_execs"
  | Sym_eliminated_execs -> "sym_eliminated_execs"
  | Loop_eliminated_execs -> "loop_eliminated_execs"
  | User_hits -> "user_hits"
  | Read_hits -> "read_hits"
  | Internal_hits -> "internal_hits"
  | Unattributed_hits -> "unattributed_hits"
  | Loop_entries -> "loop_entries"
  | Loop_triggers -> "loop_triggers"
  | Patches_inserted -> "patches_inserted"
  | Patches_removed -> "patches_removed"
  | Regions_created -> "regions_created"
  | Regions_deleted -> "regions_deleted"
  | Violations -> "violations"
  | Seg_segments_allocated -> "seg_segments_allocated"
  | Seg_words_monitored -> "seg_words_monitored"
  | Seg_arena_bytes -> "seg_arena_bytes"
  | Sites_total -> "sites_total"
  | Sites_checked -> "sites_checked"
  | Sites_sym_eliminated -> "sites_sym_eliminated"
  | Sites_loop_eliminated -> "sites_loop_eliminated"
  | Patched_check_execs -> "patched_check_execs"
  | Probe_dispatches -> "probe_dispatches"
  | Store_hook_dispatches -> "store_hook_dispatches"
  | Load_hook_dispatches -> "load_hook_dispatches"
  | Trap_dispatches -> "trap_dispatches"
  | Checkpoints_taken -> "checkpoints_taken"
  | Checkpoint_pages_copied -> "checkpoint_pages_copied"
  | Checkpoint_pages_shared -> "checkpoint_pages_shared"
  | Checkpoint_bytes -> "checkpoint_bytes"
  | Checkpoint_evictions -> "checkpoint_evictions"
  | Restores -> "restores"
  | Replayed_instrs -> "replayed_instrs"
  | Profiled_instrs -> "profiled_instrs"
  | Prof_transfers -> "prof_transfers"
  | Store_execs -> "store_execs"
  | Samples_taken -> "samples_taken"
  | Sessions_open -> "sessions_open"
  | Commands_served -> "commands_served"
  | Hits_streamed -> "hits_streamed"

let counter_index =
  let tbl = Hashtbl.create 32 in
  List.iteri (fun i c -> Hashtbl.replace tbl c i) all_counters;
  fun c -> Hashtbl.find tbl c

let counter_of_name =
  let tbl = Hashtbl.create 32 in
  List.iter (fun c -> Hashtbl.replace tbl (counter_name c) c) all_counters;
  fun n -> Hashtbl.find_opt tbl n

let n_counters = List.length all_counters

type typed =
  | Checks_by_type
  | Read_checks_by_type
  | Hits_by_type
  | Read_hits_by_type
  | Cache_misses_by_type

let all_typed =
  [ Checks_by_type; Read_checks_by_type; Hits_by_type; Read_hits_by_type;
    Cache_misses_by_type ]

let typed_name = function
  | Checks_by_type -> "checks_by_type"
  | Read_checks_by_type -> "read_checks_by_type"
  | Hits_by_type -> "hits_by_type"
  | Read_hits_by_type -> "read_hits_by_type"
  | Cache_misses_by_type -> "cache_misses_by_type"

let typed_index = function
  | Checks_by_type -> 0
  | Read_checks_by_type -> 1
  | Hits_by_type -> 2
  | Read_hits_by_type -> 3
  | Cache_misses_by_type -> 4

let typed_of_name = function
  | "checks_by_type" -> Some Checks_by_type
  | "read_checks_by_type" -> Some Read_checks_by_type
  | "hits_by_type" -> Some Hits_by_type
  | "read_hits_by_type" -> Some Read_hits_by_type
  | "cache_misses_by_type" -> Some Cache_misses_by_type
  | _ -> None

let n_typed = List.length all_typed

let n_write_types = 4

let write_type_names = [| "BSS"; "STACK"; "HEAP"; "BSS-VAR" |]

let write_type_name i =
  if i < 0 || i >= n_write_types then
    invalid_arg "Telemetry.write_type_name: bad write-type id"
  else write_type_names.(i)

type access = Write | Read

type event = {
  ev_pc : int;
  ev_addr : int;
  ev_region_lo : int;
  ev_region_hi : int;
  ev_region_kind : string;
  ev_access : access;
  ev_write_type : string;
  ev_insn : int;
}

let site_kind_checked = 0
let site_kind_sym = 1
let site_kind_loop = 2

type sample = {
  s_insn : int;
  s_values : (string * int) list;
}

type t = {
  mutable on : bool;  (* false only inside [replaying] *)
  scalars : int array;
  typed : int array array;
  mutable site_exec : int array;
  mutable site_hit : int array;
  mutable site_patched : int array;
  mutable site_type : int array;
  mutable site_kind : int array;
  mutable loop_entry : int array;  (* indexed by loop id *)
  mutable rsite_exec : int array;
  mutable rsite_hit : int array;
  mutable rsite_type : int array;
  ring : event Ring.t;
  mutable sample_ring : sample Ring.t;
  mutable sample_metrics : string list;
  mutable sample_every : int;
  (* Samples dropped before they reached this registry (folded in by
     [absorb] from upstream reports); the ring tracks its own drops. *)
  mutable sample_dropped_extra : int;
  mutable tags : (string * string) list;
}

let create ?(ring_capacity = 0) () =
  {
    on = true;
    scalars = Array.make n_counters 0;
    typed = Array.init n_typed (fun _ -> Array.make n_write_types 0);
    site_exec = [||];
    site_hit = [||];
    site_patched = [||];
    site_type = [||];
    site_kind = [||];
    loop_entry = [||];
    rsite_exec = [||];
    rsite_hit = [||];
    rsite_type = [||];
    ring = Ring.create ~capacity:ring_capacity;
    sample_ring = Ring.create ~capacity:0;
    sample_metrics = [];
    sample_every = 0;
    sample_dropped_extra = 0;
    tags = [];
  }

let enabled t = t.on

let replaying t f =
  let was = t.on in
  t.on <- false;
  Fun.protect ~finally:(fun () -> t.on <- was) f

let set_tag t k v =
  t.tags <- (k, v) :: List.remove_assoc k t.tags

let incr t c =
  if t.on then begin
    let i = counter_index c in
    t.scalars.(i) <- t.scalars.(i) + 1
  end

let add t c n =
  if t.on then begin
    let i = counter_index c in
    t.scalars.(i) <- t.scalars.(i) + n
  end

let set t c n = t.scalars.(counter_index c) <- n

let get t c = t.scalars.(counter_index c)

let incr_typed t c wt =
  if t.on then begin
    let a = t.typed.(typed_index c) in
    a.(wt) <- a.(wt) + 1
  end

let get_typed t c = Array.copy t.typed.(typed_index c)

let alloc_sites t spec =
  let n = Array.length spec in
  t.site_exec <- Array.make n 0;
  t.site_hit <- Array.make n 0;
  t.site_patched <- Array.make n 0;
  t.site_type <- Array.map fst spec;
  t.site_kind <- Array.map snd spec

let alloc_read_sites t types =
  let n = Array.length types in
  t.rsite_exec <- Array.make n 0;
  t.rsite_hit <- Array.make n 0;
  t.rsite_type <- Array.copy types

let n_sites t = Array.length t.site_exec

let alloc_loops t n = t.loop_entry <- Array.make n 0

(* The probe fast path: one test, one increment. *)
let[@inline] bump_site t slot =
  if t.on then t.site_exec.(slot) <- t.site_exec.(slot) + 1

let[@inline] bump_site_hit t slot =
  if t.on then t.site_hit.(slot) <- t.site_hit.(slot) + 1

(* One increment at a patch-stub entry: counts executions of a
   dynamically re-inserted (Kessler-patched) check. *)
let[@inline] bump_site_patched t slot =
  if t.on then t.site_patched.(slot) <- t.site_patched.(slot) + 1

let[@inline] bump_read_site t slot =
  if t.on then t.rsite_exec.(slot) <- t.rsite_exec.(slot) + 1

let[@inline] bump_read_site_hit t slot =
  if t.on then t.rsite_hit.(slot) <- t.rsite_hit.(slot) + 1

let bump_loop_entry t id =
  if t.on then t.loop_entry.(id) <- t.loop_entry.(id) + 1

let site_exec t slot = t.site_exec.(slot)
let site_patched t slot = t.site_patched.(slot)
let loop_entries t id = t.loop_entry.(id)

let record_event t ev = if t.on then Ring.push t.ring ev

let events t = Ring.to_list t.ring
let events_dropped t = Ring.dropped t.ring

(* --- time-series samples (v5) ------------------------------------------------ *)

let set_sample_capacity t capacity = t.sample_ring <- Ring.create ~capacity

let set_sample_meta t ~every ~metrics =
  t.sample_every <- every;
  t.sample_metrics <- metrics

let record_sample t s =
  if t.on then begin
    Ring.push t.sample_ring s;
    let i = counter_index Samples_taken in
    t.scalars.(i) <- t.scalars.(i) + 1
  end

let samples t = Ring.to_list t.sample_ring
let samples_dropped t = Ring.dropped t.sample_ring + t.sample_dropped_extra

(* --- reports ----------------------------------------------------------------- *)

let schema_version = "dbp-telemetry/6"

type site_report = {
  sr_site : int;
  sr_write_type : string;
  sr_kind : string;
  sr_exec : int;
  sr_hits : int;
  sr_patched : int;
}

type report = {
  r_schema : string;
  r_tags : (string * string) list;
  r_counters : (string * int) list;
  r_typed : (string * (string * int) list) list;
  r_sites : site_report list;
  r_read_sites : site_report list;
  r_events : event list;
  r_events_dropped : int;
  r_sample_every : int;
  r_sample_metrics : string list;
  r_samples : sample list;
  r_samples_dropped : int;
}

let kind_name k =
  if k = site_kind_sym then "sym"
  else if k = site_kind_loop then "loop"
  else "checked"

let sum = Array.fold_left ( + ) 0

let sum_where pred values tags =
  let acc = ref 0 in
  Array.iteri (fun i v -> if pred tags.(i) then acc := !acc + v) values;
  !acc

let by_type values tags =
  let a = Array.make n_write_types 0 in
  Array.iteri
    (fun i v ->
      let wt = tags.(i) in
      if wt >= 0 && wt < n_write_types then a.(wt) <- a.(wt) + v)
    values;
  a

let count_kind t k =
  sum_where (fun x -> x = k) (Array.map (fun _ -> 1) t.site_kind) t.site_kind

(* Scalar cells plus the components derived from the per-site and
   per-loop arrays; computed at report/sample time rather than on the
   bump paths. *)
let derived t c =
  match c with
  | Check_execs -> sum t.site_exec
  | Read_check_execs -> sum t.rsite_exec
  | Sym_eliminated_execs ->
    sum_where (fun k -> k = site_kind_sym) t.site_exec t.site_kind
  | Loop_eliminated_execs ->
    sum_where (fun k -> k = site_kind_loop) t.site_exec t.site_kind
  | Patched_check_execs -> sum t.site_patched
  | Loop_entries -> sum t.loop_entry
  | Sites_total -> Array.length t.site_exec
  | Sites_checked -> count_kind t site_kind_checked
  | Sites_sym_eliminated -> count_kind t site_kind_sym
  | Sites_loop_eliminated -> count_kind t site_kind_loop
  | _ -> 0

let current t c = get t c + derived t c

let typed_total t c = sum t.typed.(typed_index c)

let report t =
  let counters =
    List.map (fun c -> (counter_name c, current t c)) all_counters
  in
  let derived_typed c =
    match c with
    | Checks_by_type -> by_type t.site_exec t.site_type
    | Read_checks_by_type -> by_type t.rsite_exec t.rsite_type
    | Hits_by_type -> by_type t.site_hit t.site_type
    | Read_hits_by_type -> by_type t.rsite_hit t.rsite_type
    | Cache_misses_by_type -> Array.make n_write_types 0
  in
  let typed =
    List.map
      (fun c ->
        let d = derived_typed c and raw = t.typed.(typed_index c) in
        ( typed_name c,
          List.init n_write_types (fun i ->
              (write_type_names.(i), raw.(i) + d.(i))) ))
      all_typed
  in
  let site i =
    {
      sr_site = i;
      sr_write_type = write_type_name t.site_type.(i);
      sr_kind = kind_name t.site_kind.(i);
      sr_exec = t.site_exec.(i);
      sr_hits = t.site_hit.(i);
      sr_patched = t.site_patched.(i);
    }
  in
  let rsite i =
    {
      sr_site = i;
      sr_write_type = write_type_name t.rsite_type.(i);
      sr_kind = "read";
      sr_exec = t.rsite_exec.(i);
      sr_hits = t.rsite_hit.(i);
      sr_patched = 0;
    }
  in
  {
    r_schema = schema_version;
    r_tags = List.sort (fun (a, _) (b, _) -> String.compare a b) t.tags;
    r_counters = counters;
    r_typed = typed;
    r_sites = List.init (Array.length t.site_exec) site;
    r_read_sites = List.init (Array.length t.rsite_exec) rsite;
    r_events = events t;
    r_events_dropped = events_dropped t;
    r_sample_every = t.sample_every;
    r_sample_metrics = t.sample_metrics;
    r_samples = samples t;
    r_samples_dropped = samples_dropped t;
  }

(* Merge association lists by key, preserving first-seen key order (so
   canonical inputs yield canonical output). *)
let merge_assoc combine lists =
  let order = ref [] and acc = Hashtbl.create 32 in
  List.iter
    (List.iter (fun (k, v) ->
         match Hashtbl.find_opt acc k with
         | None ->
           order := k :: !order;
           Hashtbl.replace acc k v
         | Some v0 -> Hashtbl.replace acc k (combine v0 v)))
    lists;
  List.rev_map (fun k -> (k, Hashtbl.find acc k)) !order

let merge reports =
  let counters = merge_assoc ( + ) (List.map (fun r -> r.r_counters) reports) in
  let typed =
    merge_assoc
      (fun a b -> merge_assoc ( + ) [ a; b ])
      (List.map (fun r -> r.r_typed) reports)
  in
  let tags =
    match reports with
    | [] -> []
    | first :: rest ->
      List.filter
        (fun (k, v) ->
          List.for_all (fun r -> List.assoc_opt k r.r_tags = Some v) rest)
        first.r_tags
  in
  (* Samples survive a merge as the sorted concatenation: sorting by
     (insn, values) gives a canonical multiset order, so the merged
     ring does not depend on which domain produced which sample. *)
  let samples =
    List.concat_map (fun r -> r.r_samples) reports
    |> List.sort (fun a b ->
           match compare a.s_insn b.s_insn with
           | 0 -> compare a.s_values b.s_values
           | c -> c)
  in
  let sample_metrics =
    List.concat_map (fun r -> r.r_sample_metrics) reports
    |> List.fold_left
         (fun acc m -> if List.mem m acc then acc else m :: acc)
         []
    |> List.rev
  in
  let sample_every =
    let everies =
      List.filter_map
        (fun r -> if r.r_sample_every > 0 then Some r.r_sample_every else None)
        reports
    in
    match everies with
    | [] -> 0
    | e :: rest -> if List.for_all (fun x -> x = e) rest then e else 0
  in
  {
    r_schema = schema_version;
    r_tags = tags;
    r_counters = counters;
    r_typed = typed;
    r_sites = [];
    r_read_sites = [];
    r_events = [];
    r_events_dropped =
      List.fold_left
        (fun a r -> a + r.r_events_dropped + List.length r.r_events)
        0 reports;
    r_sample_every = sample_every;
    r_sample_metrics = sample_metrics;
    r_samples = samples;
    r_samples_dropped =
      List.fold_left (fun a r -> a + r.r_samples_dropped) 0 reports;
  }

let absorb t r =
  List.iter
    (fun (name, v) ->
      match counter_of_name name with
      | Some c ->
        let i = counter_index c in
        t.scalars.(i) <- t.scalars.(i) + v
      | None -> ())
    r.r_counters;
  List.iter
    (fun (name, cells) ->
      match typed_of_name name with
      | Some c ->
        let a = t.typed.(typed_index c) in
        List.iter
          (fun (wt_name, v) ->
            match
              Array.to_list
                (Array.mapi (fun i n -> (n, i)) write_type_names)
              |> List.assoc_opt wt_name
            with
            | Some i -> a.(i) <- a.(i) + v
            | None -> ())
          cells
      | None -> ())
    r.r_typed;
  (* Sample rings fold like the counters: every retained sample is
     pushed into this registry's ring (its capacity decides further
     drops), upstream drop counts accumulate, and sampler metadata is
     kept when the inputs agree. *)
  List.iter (fun s -> Ring.push t.sample_ring s) r.r_samples;
  t.sample_dropped_extra <- t.sample_dropped_extra + r.r_samples_dropped;
  if t.sample_metrics = [] then t.sample_metrics <- r.r_sample_metrics
  else if r.r_sample_metrics <> [] && r.r_sample_metrics <> t.sample_metrics
  then
    t.sample_metrics <-
      t.sample_metrics
      @ List.filter (fun m -> not (List.mem m t.sample_metrics)) r.r_sample_metrics;
  if t.sample_every = 0 then t.sample_every <- r.r_sample_every
  else if r.r_sample_every > 0 && r.r_sample_every <> t.sample_every then
    t.sample_every <- 0
