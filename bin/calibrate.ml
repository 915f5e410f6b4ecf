(* Calibration: run each workload uninstrumented, print exit codes,
   instruction counts, store density and cache hits and misses.  CI
   diffs this output against the merge base's, so the derived hit count
   is pinned as well as the cycle count it feeds. *)

let () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      try
        let linked = Minic.Compile.compile_and_link w.source in
        let cpu = Machine.Cpu.create linked.image in
        Machine.Cpu.install_basic_services cpu;
        let code = Machine.Cpu.run ~fuel:100_000_000 cpu in
        let s = Machine.Cpu.stats cpu in
        Printf.printf
          "%-16s exit=%-6d instrs=%-9d cycles=%-9d stores=%-8d store%%=%.1f \
           hits=%-9d misses=%d\n"
          w.name code s.Machine.Cpu.instrs s.Machine.Cpu.cycles s.Machine.Cpu.stores
          (100.0 *. float_of_int s.Machine.Cpu.stores /. float_of_int s.Machine.Cpu.instrs)
          s.Machine.Cpu.cache_hits s.Machine.Cpu.cache_misses
      with
      | Minic.Compile.Error e ->
        Printf.printf "%-16s COMPILE ERROR (%s): %s\n" w.name e.phase e.message
      | Machine.Cpu.Fault { pc; reason } ->
        Printf.printf "%-16s FAULT at 0x%x: %s\n" w.name pc reason
      | Machine.Cpu.Out_of_fuel _ -> Printf.printf "%-16s OUT OF FUEL\n" w.name)
    Workloads.Spec.all
