(** Integer condition codes and branch conditions.

    The simulator keeps the SPARC integer condition-code register —
    negative, zero, overflow and carry, set by the [cc]-modifying ALU
    instructions ([addcc], [subcc], ...) and consumed by conditional
    branches — packed in one integer. *)

type t =
  | A    (** always *)
  | N    (** never *)
  | E    (** equal *)
  | Ne   (** not equal *)
  | G    (** signed greater *)
  | Ge   (** signed greater or equal *)
  | L    (** signed less *)
  | Le   (** signed less or equal *)
  | Gu   (** unsigned greater *)
  | Leu  (** unsigned less or equal *)
  | Cc   (** carry clear, i.e. unsigned greater or equal *)
  | Cs   (** carry set, i.e. unsigned less *)
  | Pos  (** non-negative *)
  | Neg  (** negative *)
  | Vc   (** overflow clear *)
  | Vs   (** overflow set *)

(** Packed flags for the simulator's hot loop (bit 3 = n, bit 2 = z,
    bit 1 = v, bit 0 = c): setting flags writes one immediate integer
    instead of allocating a record per cc-setting instruction. *)

val packed_zero : int

val eval_packed : t -> int -> bool
(** Whether a branch on this condition is taken given the flags. *)

val negate : t -> t
(** The complementary condition: [eval_packed (negate t) bits = not
    (eval_packed t bits)]. *)

val to_string : t -> string
(** Branch mnemonic suffix, e.g. [Ge] is ["ge"] as in [bge]. *)

val of_string : string -> t
(** Accepts the synonyms [z]/[nz]/[geu]/[lu].
    @raise Invalid_argument on unknown mnemonics. *)

val equal : t -> t -> bool
