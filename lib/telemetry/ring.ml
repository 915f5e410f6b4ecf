(* Fixed-capacity ring buffer.

   Represented as an option array plus a monotone push counter; the
   write cursor is [pushed mod capacity].  [None] marks never-written
   slots, so [to_list] needs no separate validity bookkeeping.  The
   [Some] boxing costs one allocation per push, which only happens on
   monitor hits — never on the interpreter fast path. *)

type 'a t = {
  slots : 'a option array;
  mutable pushed : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Ring.create: negative capacity";
  { slots = Array.make capacity None; pushed = 0 }

let length t = min t.pushed (Array.length t.slots)

let dropped t = t.pushed - length t

let push t x =
  let cap = Array.length t.slots in
  if cap > 0 then t.slots.(t.pushed mod cap) <- Some x;
  (* Even a zero-capacity ring counts pushes: the "how many events did
     I miss" question stays answerable with tracing sized off. *)
  t.pushed <- t.pushed + 1

let to_list t =
  let cap = Array.length t.slots in
  if cap = 0 || t.pushed = 0 then []
  else begin
    let n = length t in
    let first = if t.pushed <= cap then 0 else t.pushed mod cap in
    List.init n (fun i ->
        match t.slots.((first + i) mod cap) with
        | Some x -> x
        | None -> assert false)
  end
