open Machine

(* A checkpoint plus the metadata the journal needs: capture-order
   sequence number and instruction-count key.  The heavy lifting is
   {!Cpu.checkpoint}, which is copy-on-write — pages are shared between
   snapshots until a write separates them, so holding many snapshots
   costs O(total dirty pages), not O(snapshots x allocated memory).
   The checkpoint is also what the determinism guard compares a replay
   against, so capturing one hashes nothing.  [written] summarizes the
   stores of the window this checkpoint closes; it only grows, when the
   journal evicts the checkpoint before it. *)

type t = {
  cp : Cpu.checkpoint;
  insn : int;
  seq : int;
  mutable written : Written.t;
}

(* [seq] is assigned by the caller (the replay engine keeps a
   per-instance counter) so that parallel bench domains never share
   mutable state through this module. *)
let capture ~seq ~written cpu =
  { cp = Cpu.checkpoint cpu; insn = Cpu.instr_count cpu; seq; written }

let restore cpu t = Cpu.rollback cpu t.cp
let diverges cpu t = Cpu.diverges cpu t.cp

let insn t = t.insn
let seq t = t.seq
let view t = Cpu.checkpoint_view t.cp
let written t = t.written
let absorb t ~victim = t.written <- Written.union victim.written t.written

let pages t = Memory.view_pages (view t)

let delta_pages ~prev t =
  match prev with
  | None -> pages t
  | Some p -> Memory.view_diff (view p) (view t)

let bytes_of_delta t delta =
  (delta * Memory.page_bytes) + Cpu.checkpoint_overhead_bytes t.cp

let bytes ~prev t = bytes_of_delta t (delta_pages ~prev t)
