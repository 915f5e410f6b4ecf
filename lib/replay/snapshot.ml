open Machine

(* A checkpoint plus the metadata the journal needs: capture-order
   sequence number and instruction-count key.  The heavy lifting is
   {!Cpu.checkpoint}, which is copy-on-write — pages are shared between
   snapshots until a write separates them, so holding many snapshots
   costs O(total dirty pages), not O(snapshots x allocated memory).
   The checkpoint is also what the determinism guard compares a replay
   against, so capturing one hashes nothing. *)

type t = { cp : Cpu.checkpoint; insn : int; seq : int }

(* [seq] is assigned by the caller (the replay engine keeps a
   per-instance counter) so that parallel bench domains never share
   mutable state through this module. *)
let capture ~seq cpu =
  { cp = Cpu.checkpoint cpu; insn = Cpu.instr_count cpu; seq }

let restore cpu t = Cpu.rollback cpu t.cp
let diverges cpu t = Cpu.diverges cpu t.cp

let insn t = t.insn
let seq t = t.seq
let view t = Cpu.checkpoint_view t.cp

let pages t = Memory.view_pages (view t)

let delta_pages ~prev t =
  match prev with
  | None -> pages t
  | Some p -> Memory.view_diff (view p) (view t)

let shared_pages ~prev t = pages t - delta_pages ~prev t

let bytes ~prev t =
  (delta_pages ~prev t * Memory.page_bytes) + Cpu.checkpoint_overhead_bytes t.cp
