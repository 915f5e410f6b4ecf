(* Access-anomaly detection (§5): with read monitoring — the paper's
   "straightforward extension" to read instructions — data breakpoints
   can catch a consumer reading shared data the producer has not
   written yet, the essence of the access-anomaly detectors the paper
   cites (Dinning & Schonberg).

   Here a double-buffered pipeline swaps buffers with an off-by-one:
   one consumer round reads a cell its producer round never filled.
   The detector keeps a written-set per cell and flags any monitored
   READ of a never-written cell.

   Run with:  dune exec examples/access_anomaly.exe *)

open Dbp

let program = {|
int shared[16];

int produce(int round) {
  int i;
  /* BUG: fills only 15 of the 16 cells. */
  for (i = 0; i < 15; i = i + 1) {
    shared[i] = round * 100 + i;
  }
  return 0;
}

int consume() {
  int i;
  int s;
  s = 0;
  for (i = 0; i < 16; i = i + 1) {
    s = s + shared[i];
  }
  return s;
}

int main() {
  int total;
  produce(1);
  total = consume();
  return total & 255;
}
|}

let () =
  let options =
    { Instrument.default_options with Instrument.monitor_reads = true }
  in
  let session = Session.create ~options program in
  let dbg = Debugger.create session in
  let _wp = Debugger.watch dbg "shared" in

  (* The detector: a written-set over the watched array. *)
  let written = Hashtbl.create 16 in
  let anomalies = ref [] in
  Debugger.set_on_event dbg (fun e ->
      match e.Debugger.access with
      | Mrs.Write -> Hashtbl.replace written e.Debugger.addr ()
      | Mrs.Read ->
        if not (Hashtbl.mem written e.Debugger.addr) then
          anomalies := (e.Debugger.addr, e.Debugger.in_function) :: !anomalies);

  let exit_code, _ = Session.run session in
  let count = Telemetry.get session.Session.telemetry in
  let reads = count Telemetry.Read_hits in
  Printf.printf "exit %d; %d writes and %d reads of 'shared' monitored\n"
    exit_code
    (count Telemetry.User_hits - reads)
    reads;
  match List.rev !anomalies with
  | [] -> print_endline "no anomalies"
  | l ->
    List.iter
      (fun (addr, f) ->
        Printf.printf
          "ANOMALY: read of never-written cell shared[%d] in %s\n"
          ((addr - (match Sparc.Symtab.lookup session.Session.symtab "shared" with
                    | Some { Sparc.Symtab.location = Sparc.Symtab.Absolute a; _ } -> a
                    | _ -> 0)) / 4)
          (Option.value ~default:"?" f))
      l
