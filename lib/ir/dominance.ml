(* Cooper-Harvey-Kennedy "A Simple, Fast Dominance Algorithm". *)

type t = {
  idom : int array;          (* idom.(entry) = entry; -1 for unreachable *)
  rpo_index : int array;     (* position in reverse postorder; -1 unreachable *)
  children : int list array; (* dominator-tree children *)
  frontier : int list array; (* dominance frontier *)
}

let compute (cfg : Cfg.t) : t =
  let n = Cfg.n_blocks cfg in
  let rpo = Cfg.reverse_postorder cfg in
  let rpo_index = Array.make n (-1) in
  List.iteri (fun i id -> rpo_index.(id) <- i) rpo;
  let idom = Array.make n (-1) in
  idom.(cfg.entry) <- cfg.entry;
  let intersect a b =
    let a = ref a and b = ref b in
    while !a <> !b do
      while rpo_index.(!a) > rpo_index.(!b) do a := idom.(!a) done;
      while rpo_index.(!b) > rpo_index.(!a) do b := idom.(!b) done
    done;
    !a
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun id ->
        if id <> cfg.entry then begin
          let preds =
            List.filter (fun p -> idom.(p) <> -1 && rpo_index.(p) <> -1)
              (Cfg.block cfg id).preds
          in
          match preds with
          | [] -> ()
          | first :: rest ->
            let new_idom = List.fold_left intersect first rest in
            if idom.(id) <> new_idom then begin
              idom.(id) <- new_idom;
              changed := true
            end
        end)
      rpo
  done;
  let children = Array.make n [] in
  Array.iteri
    (fun id d ->
      if d <> -1 && id <> cfg.entry then children.(d) <- id :: children.(d))
    idom;
  (* Dominance frontier (Cytron et al. / CHK formulation). *)
  let frontier = Array.make n [] in
  Array.iter
    (fun (b : Cfg.block) ->
      if rpo_index.(b.id) <> -1 && List.length b.preds >= 2 then
        List.iter
          (fun p ->
            if idom.(p) <> -1 then begin
              let runner = ref p in
              while !runner <> idom.(b.id) do
                if not (List.mem b.id frontier.(!runner)) then
                  frontier.(!runner) <- b.id :: frontier.(!runner);
                runner := idom.(!runner)
              done
            end)
          (List.filter (fun p -> rpo_index.(p) <> -1) b.preds))
    cfg.blocks;
  { idom; rpo_index; children; frontier }

let dominates t a b =
  (* a dominates b: walk b's idom chain. *)
  if t.rpo_index.(a) = -1 || t.rpo_index.(b) = -1 then false
  else begin
    let rec walk x = if x = a then true else if t.idom.(x) = x then false else walk t.idom.(x) in
    walk b
  end

let frontier t id = t.frontier.(id)
let children t id = t.children.(id)
let reachable t id = t.rpo_index.(id) <> -1
