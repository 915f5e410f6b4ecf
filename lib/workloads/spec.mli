(** The benchmark registry, in Table 1's order. *)

val all : Workload.t list
val find : string -> Workload.t option
