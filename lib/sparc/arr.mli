(** Array builders that never force a minor collection.

    [Array.init], [Array.mapi] and [Array.of_list] run a stop-the-world
    minor collection when the array has more than 256 elements and its
    first element is freshly allocated.  These functions build the
    same arrays, calling [f] in index order, without one. *)

val mapi : (int -> 'a -> 'b) -> 'a array -> 'b array
val of_list : 'a list -> 'a array
