(* The benchmark registry: one analogue per SPEC program measured in
   the paper, in Table 1's order. *)

let all : Workload.t list =
  [
    Eqntott.workload;
    Espresso.workload;
    Gcc.workload;
    Li.workload;
    Doduc.workload;
    Fpppp.workload;
    Matrix300.workload;
    Nasker.workload;
    Spice.workload;
    Tomcatv.workload;
  ]

let find name =
  List.find_opt (fun w -> String.equal w.Workload.name name) all
