(** Sparse simulated memory with copy-on-write snapshots.

    The full 32-bit address space is available; 4-KiB pages are
    materialized on first write, and reads of untouched pages return
    zero.  Byte order is big-endian, as on SPARC.  Values are stored in
    {!Sparc.Word} normalized form.

    Checkpointing is copy-on-write: {!snapshot_cow} is O(1) — it hands
    out a persistent view of the current page map and bumps a
    generation counter; the first write to each page after a snapshot
    copies just that page.  Adjacent checkpoints therefore share every
    page that was not dirtied between them, replacing the former
    O(allocated-memory) deep copy with an O(dirty-pages) one.

    Memory does not record which words were written: a store
    instruction and a host-side {!write_word} look the same here.  The
    replay engine learns which words each checkpoint window stored to
    from {!Cpu}'s store hooks instead, per word rather than per page. *)

exception Misaligned of { addr : int; width : int }

type view
(** An immutable snapshot of the page map.  Cheap to hold: pages are
    shared structurally with the live memory and with other views until
    a write separates them. *)

type page = { mutable arr : int array; mutable gen : int }
(** A materialized page: [gen] is the epoch in which [arr] was last
    copied; [gen < epoch] means [arr] may be shared with a snapshot
    view and must be copied before the next write. *)

type t = {
  pages : (int, page) Hashtbl.t;
  mutable last_key : int;  (** single-slot page cache; see [memory.ml] *)
  mutable last_page : int array;
  mutable epoch : int;
  mutable view : view;
  mutable cow_copies : int;
}
(** The representation is exposed so {!Cpu}'s hot loop can inline the
    aligned word load/store fast path (a hit on the single-slot page
    cache is one compare and one array access).  The slot cache only
    ever holds pages private to the current epoch, so the inlined store
    path needs no generation check.  Code outside [Cpu] must treat the
    type as abstract and use the accessors below. *)

val page_bits : int
(** Page size is [1 lsl page_bits] bytes. *)

val page_bytes : int
(** [1 lsl page_bits]. *)

val offset_mask : int
(** [(1 lsl page_bits) - 1]: mask selecting the in-page byte offset. *)

val create : unit -> t

val read_word : t -> int -> int
(** @raise Misaligned unless [addr] is 4-byte aligned. *)

val write_word : t -> int -> int -> unit

val read_byte : t -> int -> int
(** Unsigned byte in [0, 256). *)

val write_byte : t -> int -> int -> unit

val read_half : t -> int -> int
(** Unsigned halfword. @raise Misaligned unless 2-byte aligned. *)

val write_half : t -> int -> int -> unit

val read_signed : t -> int -> Sparc.Insn.width -> int
(** Sign-extending sub-word read.  Word width reads the full word.
    @raise Invalid_argument for [Double] (handled by the CPU as a pair). *)

val read_unsigned : t -> int -> Sparc.Insn.width -> int

(** {1 Copy-on-write snapshots} *)

val snapshot_cow : t -> view
(** Capture the current contents as an immutable view.  O(1): no page
    is copied now; subsequent writes copy the pages they touch. *)

val restore_cow : t -> view -> unit
(** Reset [t]'s contents to a view's.  O(resident pages) table rebuild,
    zero page copies: the restored pages stay shared with the view and
    are copied back out lazily on write. *)

val epoch : t -> int
(** Current generation; bumped by every {!snapshot_cow}/{!restore_cow}. *)

val cow_copies : t -> int
(** Cumulative pages copied by the COW machinery since [create] — the
    real byte cost of all snapshots taken so far is
    [cow_copies * page_bytes] plus one copy of the final resident set. *)

val view_pages : view -> int
(** Number of pages resident in the view. *)

val view_bytes : view -> int
(** [view_pages v * page_bytes]: bytes addressed by the view (shared or
    not). *)

val view_diff : view -> view -> int
(** [view_diff prev next]: pages of [next] not physically shared with
    [prev] — with [prev] the preceding checkpoint, the number of pages
    this checkpoint actually captured (its O(dirty) cost). *)

val diff_view : t -> view -> (int * int * int) option
(** [diff_view t view]: the lowest word address at which live memory
    and [view] hold different values, as [(addr, in_view, live)];
    [None] when every word agrees.  A page missing on one side reads as
    zeros, and pages physically shared with the view compare equal
    without a scan: only pages written since the view was taken or
    restored are compared word by word. *)

val view_read_word : view -> int -> int
(** Read a word out of a snapshot without restoring it.
    @raise Misaligned unless 4-byte aligned. *)

val iter_view : view -> (int -> int array -> unit) -> unit
(** Iterate the view's pages in ascending key order (key, words). *)

val allocated_words : t -> int
(** Number of words in materialized pages — the denominator for the
    segmented bitmap's ~3% space-overhead figure. *)

val iter_written : t -> (int -> int -> unit) -> unit
(** Iterate over non-zero words of materialized pages. *)

val iter_pages : t -> (int -> int array -> unit) -> unit
(** Iterate materialized pages (key, words); unspecified order. *)
