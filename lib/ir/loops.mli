(** Natural-loop detection.

    Loops are identified from back edges (edges to a dominator) and
    returned innermost-first, the order in which the paper's optimizer
    processes loop nests so that checks moved out of an inner loop can
    be considered again at the next level (§4.3.2). *)

type loop = {
  header : int;
  body : int list;           (** sorted; includes the header *)
  back_edges : int list;     (** latch blocks *)
  outside_preds : int list;  (** header predecessors outside the loop *)
  depth : int;               (** 1 = outermost *)
}

val in_loop : loop -> int -> bool

val find : Cfg.t -> Dominance.t -> loop list
