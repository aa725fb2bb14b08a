(* Alcotest sizes its name column by the longest suite name and cuts
   test names to fit a fixed line, so a suite name longer than
   "integration" shortens every printed test name. *)
let () =
  Alcotest.run "fortran-d"
    [
      ("support", Test_support.suite);
      ("frontend", Test_frontend.suite);
      ("analysis", Test_analysis.suite);
      ("callgraph", Test_callgraph.suite);
      ("core", Test_core.suite);
      ("pipeline", Test_pipeline.suite);
      ("machine", Test_machine.suite);
      ("units2", Test_units2.suite);
      ("units3", Test_units3.suite);
      ("common", Test_common.suite);
      ("units4", Test_units4.suite);
      ("comm", Test_comm.suite);
      ("properties", Test_properties.suite);
      ("absdom", Test_absdom.suite);
      ("faults", Test_faults.suite);
      ("verify", Test_verify.suite);
      ("cost", Test_cost.suite);
      ("trace", Test_trace.suite);
      ("integration", Test_integration.suite);
      ("totality", Test_totality.suite);
      ("golden-sim", Test_golden_sim.suite);
      ("golden-chk", Test_golden_verify.suite);
      ("golden-spmd", Test_golden_spmd.suite);
      ("golden-part", Test_golden_partition.suite);
      ("eval", Test_eval.suite);
    ]
