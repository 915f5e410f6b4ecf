(* Seeded workload inputs.  The seed picks everything a run varies —
   program order, watched globals, query and travel points, the small
   programs' parameters and the open-loop arrival times — and the
   programs under test receive only these generated inputs. *)

open Dbp

type program = {
  name : string;
  source : string;
  expected_exit : int;
  globals : string list;  (** watchable globals, symbol-table order *)
}

(* Sessions that only watch are instrumented at the paper's best
   setting, BitmapInlineRegisters with loop optimization. *)
let options = { Instrument.default_options with opt = Instrument.O_full }

(* Sessions that answer retroactive queries stop at symbol-table
   elimination: under loop optimization a pre-header trigger patches
   checks back into the text mid-run, and replaying the recorded run
   from an earlier checkpoint then diverges (e.g. watching matrix300's
   [a]).  dbreakd sessions are opened at this level too ([symbol]), so
   in-process and wire answers for one program are comparable. *)
let replay_options = { Instrument.default_options with opt = Instrument.O_symbol }

let fuel = 200_000_000

let globals_of source =
  let out = Minic.Compile.compile source in
  List.map (fun e -> e.Sparc.Symtab.name)
    (Sparc.Symtab.globals out.Minic.Codegen.symtab)

(* The ten SPEC'89/'92 analogues, each with its locked-in exit code. *)
let spec () =
  Array.of_list
    (List.map
       (fun (w : Workloads.Workload.t) ->
         {
           name = w.name;
           source = w.source;
           expected_exit = Option.get w.expected_exit;
           globals = globals_of w.source;
         })
       Workloads.Spec.all)

(* The service family: the wire-protocol experiment's counter program
   with a seeded loop bound (100-400) and step (1-3).  Its expected exit
   comes from an uninstrumented run, independent of the debugger. *)
let small_source ~bound ~step =
  Printf.sprintf
    "int counter;\n\
     int total;\n\n\
     int bump(int k) {\n\
    \  counter = counter + k;\n\
    \  return counter;\n\
     }\n\n\
     int main() {\n\
    \  int i;\n\
    \  i = 0;\n\
    \  total = 0;\n\
    \  while (i < %d) {\n\
    \    total = total + bump(%d);\n\
    \    i = i + 1;\n\
    \  }\n\
    \  return counter;\n\
     }\n"
    bound step

(* A run draws its small programs from a pool of this many variants, so
   references stay cheap to recompute while sessions still differ. *)
let small_pool = 16

let small rng =
  Array.init small_pool (fun _ ->
      let bound = 100 + Random.State.int rng 301 in
      let step = 1 + Random.State.int rng 3 in
      let source = small_source ~bound ~step in
      {
        name = Printf.sprintf "small-n%d-k%d" bound step;
        source;
        expected_exit = fst (Minic.Compile.run source);
        globals = [ "counter"; "total" ];
      })

let rng ~workload ~seed = Random.State.make [| seed; Hashtbl.hash workload |]

let pick rng l = List.nth l (Random.State.int rng (List.length l))

(* Which global each session watches: a program's sessions step through
   its globals from a seeded starting point, so every run watches each
   global about equally often and seeds differ in order, not mix. *)
let rotation rng =
  let next = Hashtbl.create 16 in
  fun p ->
    let k =
      match Hashtbl.find_opt next p.name with
      | Some k -> k
      | None -> Random.State.int rng (List.length p.globals)
    in
    Hashtbl.replace next p.name (k + 1);
    List.nth p.globals (k mod List.length p.globals)

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Arrival times in [0, span) at [rate] per second: a Poisson process
   conditioned on its count in each whole second, i.e. [rate] uniform
   draws per second, sorted.  Fixing the counts keeps the offered load
   identical across seeds second by second: a seed's bursts last under
   a second, so the number of sessions open at once, which sets the
   daemon's memory, varies little between seeds. *)
let arrivals rng ~rate ~span =
  let n = max 1 (int_of_float (float_of_int rate *. span)) in
  let a =
    Array.init n (fun i ->
        let second = float_of_int (i / rate) in
        second +. Random.State.float rng (Float.min 1.0 (span -. second)))
  in
  Array.sort compare a;
  a
