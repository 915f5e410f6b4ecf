(* OCaml 5.1's [caml_make_vect] runs a minor collection, which stops
   every domain, whenever it builds an array of more than 256 elements
   around a freshly allocated first element; [Array.init], [Array.map],
   [Array.mapi] and [Array.of_list] all start that way.  These builders
   fill chunks of at most 256 elements, which live in the minor heap,
   and join them with [Array.concat], which allocates a large result
   directly in the major heap without a collection. *)

let chunk = 256

let init n f =
  if n <= chunk then Array.init n f
  else begin
    let chunks = ref [] and lo = ref 0 in
    while !lo < n do
      let base = !lo in
      chunks := Array.init (min chunk (n - base)) (fun i -> f (base + i)) :: !chunks;
      lo := base + chunk
    done;
    Array.concat (List.rev !chunks)
  end

let mapi f a = init (Array.length a) (fun i -> f i (Array.unsafe_get a i))

let of_list l =
  let rest = ref l in
  init (List.length l) (fun _ ->
      match !rest with
      | x :: tl ->
        rest := tl;
        x
      | [] -> assert false)
