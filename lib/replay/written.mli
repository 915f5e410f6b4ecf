(** Which words a checkpoint window stored to.

    While a run is recorded, the replay engine's store hook marks every
    word each executed store instruction writes ({!add}: one word for
    [st]/[stb]/[sth], two for [std]); each checkpoint takes the marks
    made since the previous one ({!take}).  The summary is exact per
    word — a 32-bit mask per 128-byte block — so {!overlaps} holds
    exactly when replaying the window under a watch on the range would
    report a hit, and a query can skip every other window unreplayed.
    Host-side writes ({!Machine.Memory.write_word} from a trap handler
    or the debugger) run no store hook, so they are not marked; they
    produce no replay hit either. *)

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

type builder

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
