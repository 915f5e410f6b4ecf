let () =
  Alcotest.run "dbp"
    (Test_sparc.suites @ Test_machine.suites @ Test_minic.suites @ Test_ir.suites @ Test_dbp.suites @ Test_core_units.suites @ Test_workloads.suites @ Test_fuzz.suites @ Test_telemetry.suites @ Test_audit.suites @ Test_replay.suites @ Test_profile.suites @ Test_timeseries.suites @ Test_serve.suites @ Verify_mutations.suites @ Test_oracles.suites)
