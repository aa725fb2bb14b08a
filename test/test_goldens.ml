(* The verifier, trace and golden suites, about half of the suite's
   time; test_main.exe runs the rest.  "golden-spmd" is as long as
   "integration", so names print at the width test_main.exe uses. *)
let () =
  Alcotest.run "fortran-d-goldens"
    [
      ("verify", Test_verify.suite);
      ("trace", Test_trace.suite);
      ("golden-sim", Test_golden_sim.suite);
      ("golden-chk", Test_golden_verify.suite);
      ("golden-spmd", Test_golden_spmd.suite);
      ("golden-part", Test_golden_partition.suite);
    ]
