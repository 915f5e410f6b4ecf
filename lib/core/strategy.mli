(** Write-check implementation strategies (§3.3, Table 1).

    - {!Bitmap}: segmented-bitmap lookup via a procedure call (window
      push in the callee).
    - {!Bitmap_inline}: the lookup inlined, but without reserved
      registers — temporaries spill to the stack and the table base is
      rematerialized at every check.
    - {!Bitmap_inline_registers}: inlined with reserved registers
      ([%g1]-[%g3] temporaries, [%g4] table base): 12 register
      instructions + 2 loads on the full path, as in §3.3.3.
    - {!Cache}: four per-write-type segment caches in [%g1]-[%g4]; the
      cache test is always inlined, a miss calls the library.
    - {!Cache_inline}: cache test and full lookup both inlined.
    - {!Hash_table}: the hash-table lookup of Wahbe's earlier study,
      via procedure call — the 209-642%-overhead baseline.
    - {!Trap_check}: each store raises an OS trap and the address check
      runs in the kernel/debugger — the pilot study's too-slow variant.
    - {!Hardware_watch}: processor watchpoint registers — free but
      limited to N monitored words (SPARC/R4000 N=1, i386 N=4).

    All software strategies share the reserved trio: [%g5] target
    address, [%g6] disabled flag, [%g7] check-in-progress (§2.1). *)

type t =
  | Nocheck
  | Bitmap
  | Bitmap_inline
  | Bitmap_inline_registers
  | Cache
  | Cache_inline
  | Hash_table
  | Trap_check
  | Hardware_watch of int

val to_string : t -> string

val of_string : string -> t
(** Inverse of {!to_string} (also accepting the lowercase CLI aliases):
    [of_string (to_string t) = t] for every constructor, including
    [Hardware_watch n] for any [n >= 1] — ["HardwareWatch%d"] parses
    for any positive all-digit suffix, not just the 1 and 4 the
    hardware ships with.
    @raise Invalid_argument on anything else. *)

val tag : t -> string
(** Stable lowercase snake_case identifier (e.g.
    ["bitmap_inline_registers"]) for telemetry report tags and metric
    labels. *)

val uses_segment_caches : t -> bool
val pp : Format.formatter -> t -> unit
