(** Monitored regions: word-aligned, non-overlapping byte ranges (§2),
    and the region table the MRS keeps in the debugged program's
    memory at {!Layout.region_table}, next to the bitmap it mirrors, so
    that a memory rollback restores both. *)

exception Invalid of string

type kind =
  | User      (** created by the debugger for a break condition *)
  | Internal  (** created by the MRS to protect itself or alias homes *)

type t = private { lo : int; hi : int; kind : kind }
(** Inclusive unsigned byte range; [hi - lo + 1] is a word multiple. *)

val v : ?kind:kind -> addr:int -> size_bytes:int -> unit -> t
(** @raise Invalid on misaligned address, non-positive/odd size, or a
    range past the top of the 32-bit address space. *)

val size_bytes : t -> int
val contains : t -> int -> bool
val equal : t -> t -> bool

(** {2 The region table} *)

val add : Machine.Memory.t -> ?owner:int * int -> t -> unit
(** Insert a region.  [owner] is the (loop id, [%fp]) of the loop
    pre-header that created an [Internal] region.
    @raise Invalid when the region overlaps an existing one or the
    table is full. *)

val remove : Machine.Memory.t -> t -> unit
(** @raise Invalid when no equal region is present. *)

val find_containing : Machine.Memory.t -> int -> t option

val find_in : Machine.Memory.t -> lo:int -> hi:int -> t option
(** The lowest-addressed region intersecting the inclusive range. *)

val intersects_range : Machine.Memory.t -> lo:int -> hi:int -> bool
(** Does any region intersect the inclusive range? — the semantic the
    paper's pre-header range checks need. *)

val owner_loop : Machine.Memory.t -> t -> int option
(** The loop whose pre-header created this region, if one did. *)

val owned_by : Machine.Memory.t -> loop:int -> fp:int -> t list
(** The regions the pre-header of [loop] created in the frame at [fp]. *)

val iter : Machine.Memory.t -> (t -> unit) -> unit
