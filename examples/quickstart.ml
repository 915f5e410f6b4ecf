(* Quickstart: set a data breakpoint on a global variable and print
   every update — the paper's motivating debugging task, "print the
   value of x every time it is updated", without hunting for the
   statements that might write it.

   Run with:  dune exec examples/quickstart.exe *)

open Dbp

let program = {|
int balance;

int deposit(int amount) {
  balance = balance + amount;
  return balance;
}

int withdraw(int amount) {
  balance = balance - amount;
  return balance;
}

int main() {
  int day;
  deposit(100);
  for (day = 0; day < 3; day = day + 1) {
    deposit(10 + day);
    withdraw(5);
  }
  withdraw(50);
  return balance;
}
|}

let () =
  (* Compile, instrument every write with the recommended strategy
     (inlined segmented-bitmap lookup with reserved registers), load
     into the simulator, and install the monitored region service. *)
  let session = Session.create program in
  let dbg = Debugger.create session in

  (* "watch balance" *)
  let _wp = Debugger.watch dbg "balance" in

  (* Print each hit as it happens: the written value and which function
     performed the write. *)
  Debugger.set_on_event dbg (fun e ->
      let value =
        Machine.Memory.read_word (Machine.Cpu.mem session.Session.cpu) e.Debugger.addr
      in
      Printf.printf "balance <- %4d   (written by %s at pc 0x%x)\n" value
        (Option.value ~default:"?" e.Debugger.in_function)
        e.Debugger.pc);

  let exit_code, _output = Session.run session in
  Printf.printf "\nprogram exited with %d; %d writes caught, 0 missed (oracle: %d)\n"
    exit_code
    (Telemetry.get session.Session.telemetry Telemetry.User_hits)
    (Session.missed_hits session)
