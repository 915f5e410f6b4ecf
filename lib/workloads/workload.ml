type lang = C | Fortran

type t = {
  name : string;
  lang : lang;
  description : string;
  source : string;
  expected_exit : int option;
      (* locked-in result for regression checking; [None] until
         calibrated *)
  library_functions : string list;
      (* functions treated as unpatched library code, like the paper's
         standard libraries (e.g. eqntott's qsort) *)
}

let lang_to_string = function C -> "C" | Fortran -> "F"

let fortran_idiom t = t.lang = Fortran
