(* What the two front ends (dbreak and dbreakd) share: the export-path
   funnel, the -O level names and the one-line message for every
   failure the session machinery raises.

   Every export flag goes through [export]: render only when the flag
   was given, and let [Sys_error] escape to the caller's single
   handler, which turns an unwritable path into the same one-line
   exit-1 failure for every flag — the contract pinned by bin/dune's
   runtest rules. *)

open Dbp

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let export path_opt render =
  match path_opt with
  | None -> ()
  | Some path -> write_file path (render ())

let parse_opt = function
  | "none" | "0" -> Ok Instrument.O0
  | "symbol" | "sym" -> Ok Instrument.O_symbol
  | "full" | "loop" -> Ok Instrument.O_full
  | s -> Error (Printf.sprintf "unknown optimization level %S" s)

let opt_name = function
  | Instrument.O0 -> "none"
  | Instrument.O_symbol -> "symbol"
  | Instrument.O_full -> "full"

let unresolved_target target =
  Printf.sprintf
    "cannot resolve %S to a data address (expected 0x-hex, decimal, or a \
     global variable name)"
    target

let error_message = function
  | Sys_error m | Invalid_argument m | Failure m -> Some m
  | Replay.Determinism_violation { insn; expected; actual } ->
    Some
      (Printf.sprintf
         "replay diverged from the recorded run at insn %d (%s, expected %s)"
         insn actual expected)
  | Minic.Compile.Error e ->
    Some (Printf.sprintf "%s error: %s" e.Minic.Compile.phase e.message)
  | Machine.Cpu.Fault { pc; reason } ->
    Some (Printf.sprintf "machine fault at 0x%x: %s" pc reason)
  | Machine.Cpu.Out_of_fuel { executed } ->
    Some (Printf.sprintf "out of fuel after %d instructions" executed)
  | Debugger.No_such_variable v -> Some (Printf.sprintf "no such variable: %s" v)
  | Region.Invalid m -> Some (Printf.sprintf "invalid region: %s" m)
  | Mrs.Hardware_capacity n ->
    Some (Printf.sprintf "hardware watchpoints exhausted: the processor watches %d word(s)" n)
  | _ -> None
