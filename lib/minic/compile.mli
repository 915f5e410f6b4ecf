(** Compilation driver: source → typed AST → assembly → loadable image.

    By default the mini-C runtime library ({!Runtime.source}) is
    appended to every program, providing [malloc]/[free] and the word
    block helpers. *)

type error = { phase : string; message : string }

exception Error of error

val compile : ?runtime:bool -> string -> Codegen.output
(** Compile to (unassembled) annotated assembly plus symbol table. *)

type linked = {
  image : Sparc.Assembler.image;
  symtab : Sparc.Symtab.t;  (** data labels resolved to absolute addresses *)
  functions : string list;
}

val compile_and_link : ?runtime:bool -> string -> linked

val run :
  ?runtime:bool ->
  ?fuel:int ->
  ?config:Machine.Cpu.config ->
  string ->
  int * string
(** Compile, link and execute uninstrumented; returns (exit code,
    captured output).  Convenience for tests and examples. *)
