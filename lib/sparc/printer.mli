(** Pretty-printing of instructions and programs in SPARC assembly
    syntax.  {!Parser.program_of_string} parses this format back; the
    round trip is exercised by the property tests. *)

val insn_to_string : Insn.t -> string

val program_to_string : Asm.program -> string
