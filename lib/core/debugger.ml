open Sparc

(* The debugger front end: maps source-language names from break
   conditions to monitored regions, arms PreMonitor patch lists, and
   interprets notifications (§2).  Also provides the fault-isolation
   application from §5: restricting which code may write a structure. *)

type watchpoint = {
  wname : string;
  region : Region.t;
  pseudo : string option;  (* armed via PreMonitor when matched *)
  condition : (int -> bool) option;
      (* conditional break: only values satisfying the predicate
         produce events ("stop when x > 100") *)
}

type event = {
  watch : watchpoint;
  addr : int;
  pc : int;
  in_function : string option;
  access : Mrs.access;
  value : int;  (* word at [addr] when the hit was reported: the just-
                   written value, or the value being read *)
}

exception No_such_variable of string

let function_of_pc (session : Session.t) pc =
  Instrument.function_at session.Session.sites pc

type breakpoint_event = { fname : string; count : int }

type t = {
  session : Session.t;
  mutable watchpoints : watchpoint list;
  mutable events : event list;
  mutable on_event : (event -> unit) option;
  mutable allowed_writers : (string * string list) list;
      (* watchpoint name -> functions allowed to write it *)
  mutable violations : (string * string option) list;
  break_counts : (string, int) Hashtbl.t;
}

let create (session : Session.t) =
  let t =
    {
      session;
      watchpoints = [];
      events = [];
      on_event = None;
      allowed_writers = [];
      violations = [];
      break_counts = Hashtbl.create 8;
    }
  in
  Mrs.set_callback session.Session.mrs (fun (hit : Mrs.hit) ->
      match
        List.find_opt (fun w -> Region.contains w.region hit.Mrs.addr) t.watchpoints
      with
      | Some watch ->
        let value =
          Machine.Memory.read_word
            (Machine.Cpu.mem session.Session.cpu)
            (hit.Mrs.addr land lnot 3)
        in
        let passes =
          match watch.condition with Some p -> p value | None -> true
        in
        if passes then begin
          let in_function = function_of_pc session hit.Mrs.pc in
          let event =
            { watch; addr = hit.Mrs.addr; pc = hit.Mrs.pc; in_function;
              access = hit.Mrs.access; value }
          in
          t.events <- event :: t.events;
          (match List.assoc_opt watch.wname t.allowed_writers with
          | Some allowed ->
            let ok =
              match in_function with Some f -> List.mem f allowed | None -> false
            in
            if not ok then
              t.violations <- (watch.wname, in_function) :: t.violations
          | None -> ());
          match t.on_event with Some f -> f event | None -> ()
        end
      | None -> ());
  t

let arm t (w : watchpoint) =
  Mrs.create_region t.session.Session.mrs w.region;
  (match w.pseudo with
  | Some p -> Mrs.pre_monitor t.session.Session.mrs p
  | None -> ());
  Mrs.enable t.session.Session.mrs;
  t.watchpoints <- w :: t.watchpoints;
  w

let disarm t (w : watchpoint) =
  Mrs.delete_region t.session.Session.mrs w.region;
  (match w.pseudo with
  | Some p -> Mrs.post_monitor t.session.Session.mrs p
  | None -> ());
  t.watchpoints <- List.filter (fun x -> x != w) t.watchpoints;
  if t.watchpoints = [] then Mrs.disable t.session.Session.mrs

(* Watch a global variable (whole footprint). *)
let watch t ?condition name =
  let symtab = t.session.Session.symtab in
  match Symtab.lookup symtab name with
  | Some ({ Symtab.location = Symtab.Absolute a; _ } as e) ->
    let pseudo =
      if List.mem_assoc name t.session.Session.plan.Instrument.sites_by_pseudo
      then Some name
      else None
    in
    arm t
      {
        wname = name;
        region = Region.v ~addr:a ~size_bytes:(Symtab.size_bytes e) ();
        pseudo;
        condition;
      }
  | Some _ | None -> raise (No_such_variable name)

(* Watch one field of a global struct: the motivating query "stop when
   field f of structure s is modified". *)
let watch_field t sname fname =
  let symtab = t.session.Session.symtab in
  match Symtab.lookup symtab sname with
  | Some ({ Symtab.location = Symtab.Absolute a; _ } as e) -> (
    match Symtab.field_offset e fname with
    | Some woff ->
      arm t
        {
          wname = sname ^ "." ^ fname;
          region = Region.v ~addr:(a + (4 * woff)) ~size_bytes:4 ();
          pseudo = None;
          condition = None;
        }
    | None -> raise (No_such_variable (sname ^ "." ^ fname)))
  | Some _ | None -> raise (No_such_variable sname)

(* Watch an arbitrary address range (heap objects, allocator metadata). *)
let watch_addr t ?condition ~name ~addr ~size_bytes () =
  arm t
    { wname = name; region = Region.v ~addr ~size_bytes (); pseudo = None;
      condition }

(* A control breakpoint on function entry, via the simulator's
   breakpoint support (a real debugger would use ptrace; data
   breakpoints are this system's contribution, control breakpoints its
   baseline).  The callback may inspect machine state — e.g. arm a
   watchpoint on a local of the newly entered frame. *)
let break_at t fname callback =
  match Assembler.addr_of_label t.session.Session.image fname with
  | None -> raise (No_such_variable fname)
  | Some addr ->
    Machine.Cpu.add_probe t.session.Session.cpu addr (fun cpu ->
        let count =
          1 + Option.value ~default:0 (Hashtbl.find_opt t.break_counts fname)
        in
        Hashtbl.replace t.break_counts fname count;
        callback { fname; count } cpu)

let break_count t fname =
  Option.value ~default:0 (Hashtbl.find_opt t.break_counts fname)

(* Watch a local variable of the frame whose %fp is given — typically
   from a control-breakpoint callback after the prologue has run, or
   the current frame.  The region lives on the stack, so the caller
   must disarm it before the frame dies (or accept stale hits). *)
let watch_local t ?condition ~func ~var ~fp () =
  let symtab = t.session.Session.symtab in
  match Symtab.lookup symtab ~func var with
  | Some ({ Symtab.location = Symtab.Fp_offset off; _ } as e) ->
    arm t
      {
        wname = func ^ "." ^ var;
        region =
          Region.v
            ~addr:(Sparc.Word.add fp off)
            ~size_bytes:(Symtab.size_bytes e) ();
        pseudo =
          (let p = func ^ "." ^ var in
           if List.mem_assoc p t.session.Session.plan.Instrument.sites_by_pseudo
           then Some p
           else None);
        condition;
      }
  | Some _ | None -> raise (No_such_variable (func ^ "." ^ var))

(* Fault isolation: after this, any write to [w] from a function not in
   [writers] is recorded as a violation. *)
let restrict_writers t (w : watchpoint) ~writers =
  t.allowed_writers <- (w.wname, writers) :: t.allowed_writers

let events t = List.rev t.events
let violations t = List.rev t.violations
let set_on_event t f = t.on_event <- Some f
