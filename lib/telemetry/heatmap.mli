(** Address-space heatmap: per-page write/check/hit density over the
    simulated memory.

    Pages materialize on first touch (sparse, like the memory they
    mirror) and carry three counters — store executions, instrumented
    check executions, monitored-region hits — plus a [monitored] mark
    painted from the MRS region table.  The three renders answer "which
    pages are hot and which monitored regions never fire": an aligned
    text table, a [dbp-heatmap/1] JSON document, and a plain-text PPM
    image (one pixel per touched page, red = writes, green = checks,
    blue = hits).  All renders walk pages in sorted index order, so
    they are byte-deterministic.

    The page size is injected as [page_bits] (the session layer passes
    the machine's [Memory.page_bits]); this module takes no dependency
    on the machine layer. *)

type t = private { page_bits : int; key_mask : int; dir : int array array }
(** Cells live in a two-level table indexed by a page's key, the low
    [33 - page_bits] bits of [addr lsr page_bits]: one more bit than a
    32-bit address needs, so that a negative (normalized) address and
    its unsigned twin stay two pages, each exported under its own
    [addr lsr page_bits].  [dir.(key lsr l2_bits)] is an
    empty array until a page under it is touched ({!l2}); then cell
    [key land l2_mask] is the four ints from
    [(key land l2_mask) lsl cell_bits]: writes, checks, hits, and 1
    when monitored.  A page is touched when one of them is non-zero.

    The representation is exposed so {!Cpu}'s store bodies can count
    inline.  Code outside [Cpu] must treat the type as abstract. *)

val l2_bits : int
val l2_mask : int
val cell_bits : int

val l2 : t -> int -> int array
(** [l2 t i]: [dir.(i)], allocated (zeroed) on first use. *)

val create : page_bits:int -> unit -> t
(** @raise Invalid_argument when [page_bits] is outside [8, 30]. *)

val page_bytes : t -> int

val record_write : t -> int -> unit
(** Count one store landing at the address. *)

val record_check : t -> int -> unit
(** Count one instrumented check covering the address. *)

val record_hit : t -> int -> unit
(** Count one monitored-region hit at the address. *)

val mark_monitored : t -> lo:int -> hi:int -> unit
(** Paint every page overlapping [\[lo, hi\]] as monitored (inclusive
    bounds; no-op when [hi < lo]). *)

val n_pages : t -> int
(** Touched (materialized) pages. *)

val total_writes : t -> int
(** Σ per-page writes — equals the registry's [store_execs] when every
    store is recorded (the conservation property the tests check). *)

val total_checks : t -> int
val total_hits : t -> int

val never_fired : t -> int list
(** Monitored pages with zero hits, in ascending page order. *)

val schema_version : string
(** ["dbp-heatmap/1"]. *)

val to_json : t -> Export.json
val to_json_string : t -> string

val to_text : t -> string
(** Aligned per-page table plus the never-fired monitored pages. *)

val to_ppm : t -> string
(** Plain-text PPM (P3) raster over touched pages in sorted order,
    channels scaled linearly to the per-channel maximum. *)
