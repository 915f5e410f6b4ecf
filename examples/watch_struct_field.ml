(* The paper's headline break condition: "stop when field f of
   structure s is modified" (§1, §5) — tedious with control breakpoints
   because s.f is also updated through pointers, but a single data
   breakpoint on the field's word.

   Run with:  dune exec examples/watch_struct_field.exe *)

open Dbp

let program = {|
struct config {
  int verbosity;
  int max_depth;     /* the field under suspicion */
  int seed;
};

struct config cfg;

/* Direct update. */
int set_depth(int d) {
  cfg.max_depth = d;
  return d;
}

/* Updates through a pointer — invisible to a search for "max_depth". */
int clamp_all(struct config *c) {
  if (c->max_depth > 10) {
    c->max_depth = 10;
  }
  c->verbosity = 1;
  return 0;
}

/* A stray write through pointer arithmetic: the actual bug. */
int reset_verbosity(struct config *c) {
  int *p;
  p = c;
  p[1] = -1;          /* meant p[0]! silently kills max_depth */
  return 0;
}

int main() {
  cfg.verbosity = 2;
  set_depth(99);
  clamp_all(&cfg);
  reset_verbosity(&cfg);
  return cfg.max_depth;
}
|}

let () =
  let session = Session.create program in
  let dbg = Debugger.create session in

  (* "watch cfg.max_depth" — one word of the structure. *)
  let _wp = Debugger.watch_field dbg "cfg" "max_depth" in

  Debugger.set_on_event dbg (fun e ->
      let v =
        Machine.Memory.read_word (Machine.Cpu.mem session.Session.cpu) e.Debugger.addr
      in
      Printf.printf "cfg.max_depth <- %3d   in %s\n" v
        (Option.value ~default:"?" e.Debugger.in_function));

  let exit_code, _ = Session.run session in
  Printf.printf "\nfinal cfg.max_depth = %d\n" exit_code;
  Printf.printf
    "(the last writer above is the culprit; note the write in\n\
    \ reset_verbosity never mentions max_depth in the source)\n";
  (* Updates to OTHER fields of cfg must not trigger. *)
  assert (Telemetry.get session.Session.telemetry Telemetry.User_hits = 3)
