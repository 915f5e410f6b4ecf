(** Dominator trees and dominance frontiers, via the Cooper-Harvey-
    Kennedy iterative algorithm. *)

type t

val compute : Cfg.t -> t

val dominates : t -> int -> int -> bool
(** [dominates t a b] — reflexive. False if either block is unreachable. *)

val frontier : t -> int -> int list
val children : t -> int -> int list
val reachable : t -> int -> bool
