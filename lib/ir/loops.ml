type loop = {
  header : int;
  body : int list;           (* includes header *)
  back_edges : int list;     (* sources of the latch edges *)
  outside_preds : int list;  (* predecessors of the header not in the loop *)
  depth : int;               (* 1 for outermost *)
}

let in_loop l id = List.mem id l.body

(* Natural loop of back edge (u -> h): h plus all nodes that reach u
   without passing through h. *)
let natural_loop (cfg : Cfg.t) h u =
  let body = Hashtbl.create 16 in
  Hashtbl.replace body h ();
  let rec add id =
    if not (Hashtbl.mem body id) then begin
      Hashtbl.replace body id ();
      List.iter add (Cfg.block cfg id).preds
    end
  in
  add u;
  body

let find (cfg : Cfg.t) (dom : Dominance.t) : loop list =
  (* Collect back edges and group by header. *)
  let by_header = Hashtbl.create 8 in
  Array.iter
    (fun (b : Cfg.block) ->
      if Dominance.reachable dom b.id then
        List.iter
          (fun s ->
            if Dominance.dominates dom s b.id then
              Hashtbl.replace by_header s
                (b.id :: Option.value ~default:[] (Hashtbl.find_opt by_header s)))
          b.succs)
    cfg.blocks;
  let loops =
    Hashtbl.fold
      (fun header latches acc ->
        let body = Hashtbl.create 16 in
        List.iter
          (fun u ->
            Hashtbl.iter (fun k () -> Hashtbl.replace body k ())
              (natural_loop cfg header u))
          latches;
        let members = Hashtbl.fold (fun k () l -> k :: l) body [] in
        let outside_preds =
          List.filter (fun p -> not (Hashtbl.mem body p)) (Cfg.block cfg header).preds
        in
        { header; body = List.sort compare members; back_edges = latches;
          outside_preds; depth = 0 }
        :: acc)
      by_header []
  in
  (* Nesting depth: number of loops strictly containing this one. *)
  let contains outer inner =
    outer.header <> inner.header
    && List.for_all (fun b -> List.mem b outer.body) inner.body
  in
  let loops =
    List.map
      (fun l ->
        let depth = 1 + List.length (List.filter (fun o -> contains o l) loops) in
        { l with depth })
      loops
  in
  (* Inner loops first, as the paper processes loop nests inside-out. *)
  List.sort (fun a b -> compare b.depth a.depth) loops
