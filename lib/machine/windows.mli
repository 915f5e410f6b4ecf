(** The SPARC windowed register file.

    [save] pushes a window whose {i in} registers alias the caller's
    {i out} registers; [restore] pops it.  All windows are retained in
    memory, so overflow past [nwindows] never loses data — it is counted
    in {!spills}/{!fills} and charged as cycles by the CPU, standing in
    for the window overflow/underflow trap handlers of a real kernel. *)

exception Underflow
(** Raised by [restore] on the outermost window. *)

type t = {
  mutable regs : int array;
  mutable base : int;
  nwindows : int;
  mutable depth : int;
  mutable resident : int;
  mutable spills : int;
  mutable fills : int;
}
(** One flat register file: the globals at [0..7], then window [d]'s
    ins, locals and outs at [8 + 16d], [16 + 16d] and [24 + 16d], so a
    child's ins are its parent's outs by layout.  The current window is
    [d = depth - 1] and [base = 16d]: the register with {!slot} [c] is
    [regs.(c)] if [c < 8], else [regs.(base + c)].  [regs] grows by
    doubling on {!save}; slots past the current window's outs are
    garbage.  Slot 0 ([%g0]) always holds zero.

    The representation is exposed so {!Cpu}'s pre-decoded closures can
    index it directly with slots resolved at decode time.  Code outside
    [Cpu] must treat it as abstract and go through
    {!get}/{!set}/{!save}/{!restore}. *)

val slot : Sparc.Reg.t -> int
(** [%gN] is [N], [%iN] [8 + N], [%lN] [16 + N], [%oN] [24 + N]. *)

val create : ?nwindows:int -> unit -> t
(** Default [nwindows] is 8, as on the paper's SPARCstation. *)

val get : t -> Sparc.Reg.t -> int
(** [%g0] reads as zero. *)

val set : t -> Sparc.Reg.t -> int -> unit
(** Writes to [%g0] are discarded; values are normalized. *)

val save : t -> unit
(** Push a window with zeroed locals and outs. *)

val restore : t -> unit

val copy : t -> t
(** Copy of the live windows (checkpointing). *)

val restore_from : t -> t -> unit

val depth : t -> int
val spills : t -> int
val fills : t -> int
