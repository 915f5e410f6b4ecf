(** Benchmark workload descriptors: mini-C analogues of the paper's
    SPEC'89/'92 programs (see DESIGN.md §2 for the substitution
    argument). *)

type lang = C | Fortran

type t = {
  name : string;
  lang : lang;
  description : string;
  source : string;
  expected_exit : int option;
      (** locked-in result; the harness refuses runs that disagree *)
  library_functions : string list;
      (** functions treated as unpatched library code, like the paper's
          standard libraries (e.g. eqntott's qsort) *)
}

val lang_to_string : lang -> string

val fortran_idiom : t -> bool
(** Whether the BSS-VAR write type applies (§3.1). *)
