(** Two-pass assembler: lays out text and static data, resolves symbolic
    labels, and produces a loadable image of decoded instructions. *)

type image = {
  text : Insn.t array;  (** decoded text, one instruction per word *)
  text_base : int;      (** address of [text.(0)]; instruction [k] lives
                            at [text_base + 4k] *)
  data_base : int;
  data_limit : int;     (** first address past static data — the heap
                            break handed to the allocator *)
  data_init : (int * int) list;  (** initialized data words [(addr, value)] *)
  labels : (string, int) Hashtbl.t;
  entry : int;          (** resolved entry-point address *)
  source : Asm.item list;  (** the item list the image was assembled from *)
  insn_items : int array;  (** [insn_items.(k)] is the index into [source]
                               of the item that produced text word [k] *)
}

exception Error of string

val assemble : Asm.program -> image
(** @raise Error on duplicate or undefined labels and malformed data. *)

val addr_of_label : image -> string -> int option
val label_of_addr : image -> int -> string option
