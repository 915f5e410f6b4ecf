(** Debugger symbol tables (the paper's STAB entries).

    The compiler records, for every source variable, where it lives —
    an absolute data address or a frame-pointer offset — together with
    its size and enough type structure to resolve [s.f]-style break
    conditions.  The symbol-table pattern-matching optimization (§4.2)
    matches store-address expression DAGs against these entries. *)

type location =
  | Absolute of int            (** resolved static address *)
  | Fp_offset of int           (** [%fp + offset]; locals and parameters *)
  | Data_label of string * int (** static address, pre-assembly *)

type ctype =
  | Scalar
  | Pointer
  | Array of { elems : int }   (** word elements *)
  | Struct of { fields : (string * int) list }
      (** field name, word offset within the struct *)

type entry = {
  name : string;
  func : string option;  (** [None] for globals, [Some f] for locals of [f] *)
  location : location;
  size_words : int;
  ctype : ctype;
}

type t

val of_list : entry list -> t
val entries : t -> entry list

val lookup : t -> ?func:string -> string -> entry option
(** Exact-scope lookup: [?func:None] finds globals only. *)

val globals : t -> entry list

val size_bytes : entry -> int

val field_offset : entry -> string -> int option
(** Word offset of a struct field, if [entry] is a struct. *)

val resolve_data_labels : addr_of_label:(string -> int option) -> t -> t
(** Replace {!Data_label} locations with {!Absolute} addresses using the
    assembler's label map. *)

val pp_entry : Format.formatter -> entry -> unit
