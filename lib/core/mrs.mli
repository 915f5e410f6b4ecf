(** The monitored region service runtime (§2).

    The OCaml half of the MRS: it writes the in-memory structures the
    check code reads (segmented bitmap, hash table) and the region table
    ({!Region}), all in the debugged program's memory, installs the trap handlers the checks raise, and implements the
    service interface of §2 —

    {ul
    {- [CreateMonitoredRegion] / [DeleteMonitoredRegion]
       ({!create_region} / {!delete_region});}
    {- [NotificationCallBack] ({!set_callback});}
    {- [PreMonitor] / [PostMonitor] (§4.2), which patch a matched
       variable's known writes in and out via Kessler fast
       breakpoints;}
    {- dynamic re-insertion of loop-eliminated checks when a pre-header
       check intersects a region (§4.3).}}

    The reserved registers are maintained here too: the [%g6] disabled
    flag, the [%g4] table base (BitmapInlineRegisters) and the four
    segment cache registers, which are invalidated on every region
    creation. *)

type access = Write | Read

type hit = { addr : int; pc : int; region : Region.t; access : access }

type t

val install :
  ?protect_self:bool ->
  telemetry:Telemetry.t ->
  audit:Audit.t ->
  plan:Instrument.t ->
  sites:Instrument.map ->
  image:Sparc.Assembler.image ->
  symtab:Sparc.Symtab.t ->
  Machine.Cpu.t ->
  t
(** Install trap handlers and initialize reserved registers.  The MRS
    starts disabled.  With [protect_self], internal monitored regions
    cover the MRS's own in-memory structures (§2.1); stray program
    writes into them surface as {!Telemetry.Internal_hits}.  [sites] is
    [plan]'s site map in [image]: patches swing a site to its stub
    through it.

    Every service-interface action and monitor hit is counted in
    [telemetry], the only place these counts live: hits are attributed
    back to their check site ({!Instrument.write_site_at},
    {!Instrument.read_site_at}) and bump that slot's hit cell, a trace
    event is appended to the registry's ring, and the hit, per-loop
    entry ({!Telemetry.bump_loop_entry}), loop-trigger, patch, region
    and violation counters are bumped there.

    Patch insert/remove and region create/delete are journalled in
    [audit] as lifecycle events carrying the reason ([why]) and the
    instruction count at which they happened — the runtime half of the
    provenance record started at instrument time.  A replayed hit runs
    the same handlers and patches but is counted, journalled and
    notified nowhere: see {!Replay.advance}. *)

val create_region : ?why:string -> t -> Region.t -> unit
(** [why] labels the audit event (defaults to ["user"]; internal callers
    pass ["loop-preheader"], ["mrs-self"], ...).
    @raise Region.Invalid on overlap, misalignment or a full table. *)

val delete_region : ?why:string -> t -> Region.t -> unit

val set_callback : t -> (hit -> unit) -> unit
(** The NotificationCallBack; fired for every live hit on a [User]
    region (not for hits a replay re-executes). *)

val add_hit_observer : t -> (hit -> unit) -> unit
(** Register a passive observer (heatmaps, tooling) fired for every
    live [User]-region hit after the callback.  Observers accumulate —
    unlike {!set_callback} they never replace each other. *)

val enable : t -> unit
val disable : t -> unit

val pre_monitor : t -> string -> unit
(** Patch in the checks of every known write of a matched pseudo
    (["g"] for a global, ["f.x"] for a local of [f]). *)

val post_monitor : t -> string -> unit

val check_inserted : t -> int -> bool

val record_gauges : t -> unit
(** Write the occupancy gauges ({!Telemetry.Seg_words_monitored},
    {!Telemetry.Seg_arena_bytes}) into the installed telemetry registry.
    Call just before taking a report. *)

val eval_bexpr : t -> Ir.Bounds.bexpr -> int
(** Evaluate a bound expression against live machine state (registers,
    pseudo memory homes, label addresses).
    @raise Unresolved when a name cannot be resolved. *)

exception Unresolved of string

exception Hardware_capacity of int
(** Raised by {!create_region} under {!Strategy.Hardware_watch} when
    the watchpoint registers are exhausted — the capacity failure mode
    of §1. *)

val pseudo_home_of_symtab :
  Sparc.Symtab.t -> string -> [ `Global of int | `Local of string * int ] option
