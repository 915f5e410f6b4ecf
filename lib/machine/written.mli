(** Which words a checkpoint window stored to.

    While a run is recorded, {!Cpu}'s store bodies mark every word each
    executed store instruction writes into the builder the replay
    engine hands it ({!Cpu.set_marks}; one word for [st]/[stb]/[sth],
    two for [std], the same marks as {!add}); each checkpoint takes the
    marks made since the previous one ({!take}).  The summary is exact per
    word — a 32-bit mask per 128-byte block — so {!overlaps} holds
    exactly when replaying the window under a watch on the range would
    report a hit, and a query can skip every other window unreplayed.
    Host-side writes ({!Memory.write_word} from a trap handler or the
    debugger) run no store body, so they are not marked; they produce
    no replay hit either. *)

type t
(** An immutable summary. *)

val overlaps : t -> lo:int -> hi:int -> bool
(** Some marked word overlaps byte range [[lo, hi)]. *)

val union : t -> t -> t
(** Words marked in either — the summary of two adjacent windows taken
    as one, when the checkpoint between them is evicted. *)

val words : t -> int list
(** Marked word addresses, ascending. *)

val blocks : t -> int
(** 128-byte blocks with a marked word: the summary holds two integers
    per block. *)

(** {1 Accumulation} *)

type builder = private {
  dir : int array array array;
  mutable touched : int array;
  mutable n_touched : int;
  mutable page : int;
  mutable row : int array;
}
(** A two-level table over the 20-bit page number, one row of
    [row_blocks] block masks (plus a listed flag) per page stored to,
    and the row of the last page marked ([page], a signed page number,
    or [min_int] after a {!take}).  The representation is exposed so
    {!Cpu}'s store bodies can make a mark inline: when [page] is the
    store's page the mark is one [lor] into [row], else {!row} fetches
    the page's row.  Code outside [Cpu] must treat the type as
    abstract. *)

val page_bits : int
(** A row covers [1 lsl page_bits] bytes. *)

val block_bits : int
(** A block mask covers [1 lsl block_bits] bytes, one bit per word. *)

val row_mask : int
(** [row_blocks - 1]: a row's block index is
    [(addr lsr block_bits) land row_mask]. *)

val word_mask : int
(** A word's bit in its block mask is [(addr asr 2) land word_mask]. *)

val row : builder -> int -> int array
(** [row b page]: the row of signed page number [page], made and listed
    on first use, and now cached as [b]'s last row. *)

val builder : unit -> builder
(** An empty builder: an 8 KiB page directory, plus 8 KiB for each
    4 MiB region later stored to. *)

val add : builder -> addr:int -> width:Sparc.Insn.width -> unit
(** Mark the words an executed store of [width] at [addr] wrote.  [addr]
    and the second word of an [std] are taken as 32-bit words
    ({!Sparc.Word.norm}).  Marks go to a table indexed by page number,
    with a row of 32 block masks per page: no hashing, and no
    allocation once the page has a row. *)

val take : builder -> t
(** The marks made since the last [take].  The builder zeroes the rows
    it read and keeps them for the next window. *)
