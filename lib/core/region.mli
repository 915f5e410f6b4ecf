(** Monitored regions: word-aligned, non-overlapping byte ranges (§2),
    plus the OCaml-side mirror set used for bookkeeping and range
    queries. *)

exception Invalid of string

type kind =
  | User      (** created by the debugger for a break condition *)
  | Internal  (** created by the MRS to protect itself or alias homes *)

type t = private { lo : int; hi : int; kind : kind }
(** Inclusive unsigned byte range; [hi - lo + 1] is a word multiple. *)

val v : ?kind:kind -> addr:int -> size_bytes:int -> unit -> t
(** @raise Invalid on misaligned address or non-positive/odd size. *)

val size_bytes : t -> int
val contains : t -> int -> bool
val equal : t -> t -> bool

type set

val empty : set

val add : set -> t -> set
(** @raise Invalid when the region overlaps an existing one. *)

val remove : set -> t -> set
(** @raise Invalid when no equal region is present. *)

val find_containing : set -> int -> t option

val intersects_range : set -> lo:int -> hi:int -> bool
(** Does any region intersect the inclusive range? — the semantic the
    paper's pre-header range checks need. *)

val iter : (t -> unit) -> set -> unit
val elements : set -> t list
