(** Write types for segment caching (§3.1).

    Each store instruction is statically assigned a type predicting the
    spatial locality of its targets; each type gets its own segment
    cache register.  [BSS-VAR] recognizes the Sun FORTRAN global-array
    idiom and is only used for FORTRAN-class programs. *)

type t = Bss | Stack | Heap | Bss_var

val to_string : t -> string
val cache_reg : t -> Sparc.Reg.t
val all : t list

val index : t -> int
(** Stable id 0–3 (BSS, STACK, HEAP, BSS-VAR) indexing the telemetry
    layer's per-write-type counter slots; [Telemetry.write_type_name
    (index wt)] agrees with [to_string wt]. *)

val classify : ?fortran_idiom:bool -> Sparc.Asm.item array -> int -> t
(** Classify the store at an item index by scanning its basic block
    backwards for the address base's definition.
    @raise Invalid_argument if the item is not a store. *)

val classify_load : ?fortran_idiom:bool -> Sparc.Asm.item array -> int -> t
(** Same classification for a load (read monitoring, §5).
    @raise Invalid_argument if the item is not a load. *)
