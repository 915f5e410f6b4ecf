(** Fixed-capacity ring buffer for trace events.

    A bounded, allocation-light event store: pushes beyond the capacity
    silently overwrite the oldest entries, so the buffer always holds
    the most recent [capacity] events.  The total number of pushes ever
    made is retained, so readers can tell how many events were dropped
    — the property the wraparound test checks. *)

type 'a t

val create : capacity:int -> 'a t
(** A fresh ring.  [capacity = 0] is legal and drops every push.
    @raise Invalid_argument on negative capacity. *)

val length : 'a t -> int
(** Events currently held: at most the capacity. *)

val dropped : 'a t -> int
(** Pushes minus {!length}: events lost to wraparound. *)

val push : 'a t -> 'a -> unit

val to_list : 'a t -> 'a list
(** Retained events, oldest first. *)
