(* The unit, property and integration suites.  The verifier, trace and
   golden suites run in test_goldens.exe, so dune runs the two halves
   side by side.

   Alcotest sizes its name column by the longest suite name and cuts
   test names to fit a fixed line, so a suite name longer than
   "integration" shortens every printed test name; each runner keeps
   an 11-character suite name so both print names at the same width. *)
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
      ("network", Test_network.suite);
      ("faults", Test_faults.suite);
      ("cost", Test_cost.suite);
      ("replay", Test_replay.suite);
      ("integration", Test_integration.suite);
      ("totality", Test_totality.suite);
      ("eval", Test_eval.suite);
    ]
