(* Time travel: run a program with NO watchpoint armed, then answer
   "who wrote this variable, and when?" after the fact.

   The session records the run through a copy-on-write checkpoint
   journal ([~checkpoint_every]); a retroactive query restores a
   checkpoint and re-executes the window under an invisible host-side
   watch, skipping windows that never stored to the variable (each
   checkpoint notes which words its window stored to).  The replay is byte-identical
   to the recorded run: a determinism guard compares the machine with
   every retained checkpoint it lands on.

   Run with:  dune exec examples/time_travel.exe *)

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
  (* No Debugger.watch anywhere: at run time nobody knew balance would
     matter.  [checkpoint_every] is all the foresight required. *)
  let session = Session.create ~checkpoint_every:200 program in
  let exit_code, _output = Session.run session in
  Printf.printf "program exited with %d — no watchpoints were armed\n"
    exit_code;

  let replay = Option.get (Session.replay session) in
  let journal = Replay.journal replay in
  Printf.printf
    "recorded %d instructions; %d checkpoints retained (interval %d)\n\n"
    (Replay.end_insn replay)
    (Journal.length journal)
    (Replay.interval replay);

  let addr = Option.get (Session.resolve_addr session "balance") in

  (* Retroactive query #1: the paper's motivating question, asked too
     late — who performed the final write? *)
  (match Session.last_write session ~addr with
  | None -> print_endline "balance was never written"
  | Some { wr_hit = h; wr_write_type } ->
      Printf.printf
        "last write to balance: insn %d pc 0x%x  %d -> %d  (%s write in %s)\n"
        h.Replay.h_insn h.Replay.h_pc h.Replay.h_old h.Replay.h_new
        (match wr_write_type with
        | Some t -> Write_type.to_string t
        | None -> "untyped")
        (Option.value ~default:"?"
           (Debugger.function_of_pc session h.Replay.h_pc)));

  (* Retroactive query #2: the complete story, oldest first. *)
  let history = Session.write_history session ~lo:addr ~hi:(addr + 4) in
  Printf.printf "\nfull write history (%d writes):\n" (List.length history);
  List.iter
    (fun { Session.wr_hit = h; _ } ->
      Printf.printf "  insn %-6d %4d -> %4d  (%s)\n" h.Replay.h_insn
        h.Replay.h_old h.Replay.h_new
        (Option.value ~default:"?"
           (Debugger.function_of_pc session h.Replay.h_pc)))
    history;

  (* Time travel: park the machine just after the third write and read
     the variable as it was at that moment. *)
  (match history with
  | _ :: _ :: { Session.wr_hit = h; _ } :: _ ->
      let re_executed = Session.time_travel session ~insn:h.Replay.h_insn in
      let value =
        Machine.Memory.read_word
          (Machine.Cpu.mem session.Session.cpu)
          addr
      in
      Printf.printf
        "\ntravelled to insn %d (replayed %d instructions): balance = %d\n"
        h.Replay.h_insn re_executed value
  | _ -> ());

  Printf.printf "%d instructions re-executed across all queries\n"
    (Telemetry.get session.Session.telemetry Telemetry.Replayed_instrs)
