open Sparc

exception Underflow

type t = {
  mutable regs : int array;
  mutable base : int;
  nwindows : int;
  mutable depth : int;
  mutable resident : int;  (* windows currently in the register file *)
  mutable spills : int;
  mutable fills : int;
}

(* Globals at 0..7, then window [d]'s ins, locals and outs at
   [8 + 16d], [16 + 16d] and [24 + 16d]: a child's ins are its parent's
   outs by layout, which gives the SPARC register-window overlap for
   free.  The current window is [d = depth - 1], so [base = 16d] and a
   windowed register's slot [c] lives at [base + c]. *)
let slot = function
  | Reg.G i -> i
  | Reg.I i -> 8 + i
  | Reg.L i -> 16 + i
  | Reg.O i -> 24 + i

(* Slots in use at [depth]: the globals plus the current window's outs. *)
let live t = t.base + 32

let create ?(nwindows = 8) () =
  {
    regs = Array.make ((16 * nwindows) + 24) 0;
    base = 0;
    nwindows;
    depth = 1;
    resident = 1;
    spills = 0;
    fills = 0;
  }

let get t r =
  let c = slot r in
  if c < 8 then t.regs.(c) else t.regs.(t.base + c)

let set t r v =
  let c = slot r in
  if c >= 8 then t.regs.(t.base + c) <- Word.norm v
  else if c > 0 then t.regs.(c) <- Word.norm v

(* All windows are retained, so window overflow only costs cycles,
   never correctness.

   The overflow model matches real hardware behaviour: [resident] counts
   windows held in the register file.  A save with the file full spills
   the oldest window (one trap); a restore whose target window was
   spilled fills it back (one trap).  Oscillating call/return at a fixed
   depth beyond [nwindows] is therefore free after the first crossing,
   as on a real SPARC. *)
let save t =
  t.base <- t.base + 16;
  t.depth <- t.depth + 1;
  let n = live t in
  if n > Array.length t.regs then begin
    let regs = Array.make (2 * Array.length t.regs) 0 in
    Array.blit t.regs 0 regs 0 (n - 16);
    t.regs <- regs
  end;
  (* The child's ins are already the parent's outs. *)
  Array.fill t.regs (n - 16) 16 0;
  if t.resident >= t.nwindows then t.spills <- t.spills + 1
  else t.resident <- t.resident + 1

let restore t =
  if t.depth <= 1 then raise Underflow;
  t.base <- t.base - 16;
  t.depth <- t.depth - 1;
  if t.resident <= 1 then t.fills <- t.fills + 1
  else t.resident <- t.resident - 1

let copy t = { t with regs = Array.sub t.regs 0 (live t) }

let restore_from t snap =
  let n = live snap in
  if n > Array.length t.regs then t.regs <- Array.make n 0;
  Array.blit snap.regs 0 t.regs 0 n;
  t.base <- snap.base;
  t.depth <- snap.depth;
  t.resident <- snap.resident;
  t.spills <- snap.spills;
  t.fills <- snap.fills

let depth t = t.depth
let spills t = t.spills
let fills t = t.fills
