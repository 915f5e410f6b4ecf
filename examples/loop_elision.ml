(* A look inside the optimizer (§4): compile a small numeric kernel,
   run the symbol-table and loop analyses, and show which write checks
   were eliminated, which became pre-header checks, and what it costs
   at runtime.

   Run with:  dune exec examples/loop_elision.exe *)

open Dbp

let program = {|
int image[1024];
int histogram[64];

int blur() {
  int i;
  for (i = 1; i < 1023; i = i + 1) {
    image[i] = (image[i - 1] + image[i] + image[i + 1]) / 3;
  }
  return 0;
}

int histo() {
  int i;
  int bucket;
  for (i = 0; i < 1024; i = i + 1) {
    bucket = (image[i] >> 4) & 63;
    histogram[bucket] = histogram[bucket] + 1;
  }
  return 0;
}

int main() {
  int i;
  int seed;
  seed = 7;
  for (i = 0; i < 1024; i = i + 1) {
    seed = seed * 1103515245 + 12345;
    image[i] = (seed >> 16) & 255;
  }
  blur();
  histo();
  return histogram[10] & 255;
}
|}

let describe_status = function
  | Instrument.Checked -> "checked at every execution"
  | Instrument.Sym_eliminated p -> "eliminated (symbol match on " ^ p ^ ")"
  | Instrument.Loop_eliminated id -> Printf.sprintf "eliminated (loop %d pre-header)" id

let () =
  let options = { Instrument.default_options with opt = Instrument.O_full } in
  let session = Session.create ~options program in
  Mrs.enable session.Session.mrs;
  let plan = session.Session.plan in

  Printf.printf "static write sites and their disposition:\n";
  List.iter
    (fun (s : Instrument.site) ->
      Printf.printf "  site@item %-4d [%-7s] %s\n" s.origin
        (Write_type.to_string s.write_type)
        (describe_status s.status))
    plan.Instrument.sites;

  Printf.printf "\nloop plans (pre-header checks):\n";
  List.iter
    (fun (p : Loopopt.loop_plan) ->
      Printf.printf "  loop %d in %s: %d check(s), %d store site(s) eliminated\n"
        p.loop_id p.fname (List.length p.checks) (List.length p.eliminated);
      List.iter
        (fun c ->
          match c with
          | Loopopt.Inv { expr; _ } ->
            Fmt.pr "      invariant check on %a@." Ir.Bounds.pp_bexpr expr
          | Loopopt.Rng { lo; hi; _ } ->
            Fmt.pr "      range check [%a, %a]@." Ir.Bounds.pp_bexpr lo
              Ir.Bounds.pp_bexpr hi)
        p.checks)
    plan.Instrument.loop_plans;

  let exit_code, _ = Session.run session in
  let count = Telemetry.current session.Session.telemetry in
  let total = count Telemetry.Check_execs in
  let elim =
    count Telemetry.Sym_eliminated_execs + count Telemetry.Loop_eliminated_execs
  in
  Printf.printf "\nexit code %d\n" exit_code;
  Printf.printf "dynamic writes:            %8d\n" total;
  Printf.printf "checks eliminated:         %8d (%.1f%%)\n" elim
    (100.0 *. float_of_int elim /. float_of_int (max 1 total));
  Printf.printf "pre-header checks run:     %8d\n" (count Telemetry.Loop_entries);
  Printf.printf "range checks that fired:   %8d (no regions are set)\n"
    (count Telemetry.Loop_triggers)
