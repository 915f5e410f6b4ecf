(** The debugger front end: source-level break conditions on top of the
    monitored region service (§2), plus the fault-isolation application
    sketched in §5. *)

type watchpoint = {
  wname : string;
  region : Region.t;
  pseudo : string option;
  condition : (int -> bool) option;
}

type event = {
  watch : watchpoint;
  addr : int;
  pc : int;  (** address of the access that hit *)
  in_function : string option;
  access : Mrs.access;  (** write, or read when read monitoring is on *)
  value : int;
      (** the word at [addr] when the hit fired: the just-written value
          (checks run after the store, §2.1) or the value being read *)
}

type breakpoint_event = { fname : string; count : int }

exception No_such_variable of string

type t

val create : Session.t -> t
(** Hooks the session's NotificationCallBack. *)

val watch : t -> ?condition:(int -> bool) -> string -> watchpoint
(** Watch a global variable's whole footprint.  Creates the monitored
    region, arms PreMonitor when the variable's writes were eliminated
    by symbol matching, and enables the MRS.  With [condition], only
    hits whose value satisfies the predicate produce events ("stop when
    x > 100").
    @raise No_such_variable for unknown names. *)

val watch_field : t -> string -> string -> watchpoint
(** [watch_field t "s" "f"] — the paper's motivating condition: stop
    when field [f] of structure [s] is modified. *)

val watch_addr :
  t -> ?condition:(int -> bool) -> name:string -> addr:int -> size_bytes:int ->
  unit -> watchpoint
(** Watch an arbitrary range (heap objects, allocator metadata). *)

val watch_local :
  t -> ?condition:(int -> bool) -> func:string -> var:string -> fp:int ->
  unit -> watchpoint
(** Watch a local variable of a live frame (its [%fp] typically taken
    inside a {!break_at} callback).  Disarm before the frame dies. *)

val break_at :
  t -> string -> (breakpoint_event -> Machine.Cpu.t -> unit) -> unit
(** Control breakpoint on a function entry (simulator breakpoint — the
    baseline mechanism the paper contrasts data breakpoints with).
    @raise No_such_variable for unknown functions. *)

val break_count : t -> string -> int

val disarm : t -> watchpoint -> unit

val restrict_writers : t -> watchpoint -> writers:string list -> unit
(** Fault isolation: any subsequent write to the watchpoint from a
    function outside [writers] is recorded as a violation. *)

val events : t -> event list
(** Every event so far, oldest first: live hits only, since a hit that
    a replay query re-executes notifies no one ({!Mrs.set_callback}). *)

val violations : t -> (string * string option) list
val set_on_event : t -> (event -> unit) -> unit

val function_of_pc : Session.t -> int -> string option
(** The function a pc belongs to: the greatest function label at or
    below it, except that a pc inside an eliminated site's patch stub
    belongs to the site's function. *)
