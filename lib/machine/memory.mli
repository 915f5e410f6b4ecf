(** Sparse simulated memory with copy-on-write snapshots.

    The full 32-bit address space is available; 4-KiB pages are
    materialized on first write, and reads of untouched pages return
    zero.  Byte order is big-endian, as on SPARC.  Values are stored in
    {!Sparc.Word} normalized form.

    Checkpointing is copy-on-write: {!snapshot_cow} is O(1) — it hands
    out a persistent view of the current page map and bumps a
    generation counter.  A view maps each page to a cell that keeps
    sharing the live page's array until the first write after the
    snapshot; that write packs the cell into 4 bytes per word and goes
    on writing the same array in place.  Adjacent checkpoints share
    every page not written between them, and a page that was written
    costs its snapshot 4 KiB of packed words, not an 8 KiB array.

    Memory does not record which words were written: a store
    instruction and a host-side {!write_word} look the same here.  The
    replay engine learns which words each checkpoint window stored to
    from {!Cpu}'s store hooks instead, per word rather than per page. *)

exception Misaligned of { addr : int; width : int }

type view
(** An immutable snapshot of the page map.  Cheap to hold: cells are
    shared structurally with the live memory and with other views until
    a write separates them. *)

type page = { mutable arr : int array; mutable gen : int; mutable packed : Bytes.t }
(** A mapped page, which is also a view's cell for it.  [gen] is the
    epoch in which the page was last made private; [gen <> epoch]
    means the record may be bound in a snapshot view (or is the shared
    zero page) and [arr] must not be written in place.  [packed] is
    empty while the contents are [arr]; a frozen cell holds them there,
    4 bytes per word. *)

type t = {
  dir : page array array;
  mutable epoch : int;
  mutable view : view;
  mutable cow_copies : int;
}
(** [dir] is a two-level page table: a 1024-entry directory indexed by
    the top ten bits of the 20-bit page key, each entry a 1024-entry
    second level indexed by the low ten bits.  Unmapped pages are one
    shared read-only page whose array is all zeros, and empty second
    levels one shared array of it, so a read is plain indexing with no
    test for a missing page.  A write also checks [gen = epoch] and
    otherwise calls {!writable}.

    The representation is exposed so {!Cpu}'s hot loop can inline the
    aligned word load/store.  Code outside [Cpu] must treat the type as
    abstract and use the accessors below. *)

val page_bits : int
(** Page size is [1 lsl page_bits] bytes. *)

val page_bytes : int
(** [1 lsl page_bits]. *)

val offset_mask : int
(** [(1 lsl page_bits) - 1]: mask selecting the in-page byte offset. *)

val l2_bits : int
(** A page key [k] lives at [dir.(k lsr l2_bits).(k land l2_mask)]. *)

val l2_mask : int

val create : unit -> t

val writable : t -> int -> int array
(** [writable t key]: the array of page [key], made private to the
    current epoch — created if unmapped; if shared with a view, the
    view's cell is packed and the same array is returned.  Call it only
    when the page's [gen] differs from [t.epoch]. *)

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
    is copied now; the first later write to each page packs it into
    the view's cell. *)

val restore_cow : t -> view -> unit
(** Reset [t]'s contents to a view's: unmap the live pages and map the
    view's.  O(resident pages): a cell still sharing its array is mapped
    as it is, and a packed cell is unpacked into a private array,
    reusing the arrays of live pages no view holds. *)

val epoch : t -> int
(** Current generation; bumped by every {!snapshot_cow}/{!restore_cow}. *)

val cow_copies : t -> int
(** Cumulative first writes to pages shared with a view since
    [create]: each froze one cell of [page_bytes] packed bytes. *)

val view_pages : view -> int
(** Number of pages resident in the view. *)

val view_diff : view -> view -> int
(** [view_diff prev next]: cells of [next] not physically shared with
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

val iter_written : t -> (int -> int -> unit) -> unit
(** Iterate over non-zero words of mapped pages, in ascending address
    order. *)
