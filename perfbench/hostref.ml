(* The reference computation that measures the host's CPU speed: a
   bytecode-dispatch loop over preallocated arrays — the same kind of
   work as the interpreter and the compiler passes — that uses nothing
   from the repository and allocates nothing, so neither a change to
   the code under test nor the state of its heap moves it.  Every call
   executes the same instructions. *)

let code = Array.init 64 (fun i -> (i * 37) land 7)
let mem = Array.make 4096 0

let run () =
  let acc = ref 0 and pc = ref 0 in
  for _ = 1 to 400_000 do
    (match code.(!pc) with
    | 0 -> acc := !acc + 1
    | 1 -> mem.(!acc land 4095) <- !acc
    | 2 -> acc := !acc lxor mem.((!acc * 13) land 4095)
    | 3 -> acc := !acc * 3
    | 4 -> acc := !acc lsr 1
    | 5 -> mem.((!acc + 7) land 4095) <- mem.(!acc land 4095) + 1
    | 6 -> acc := !acc + mem.(!pc)
    | _ -> acc := !acc - 1);
    pc := (!pc + 1) land 63
  done;
  !acc
