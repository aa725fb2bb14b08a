(* The paper's Section 9 case study: LINPACK dgefa (LU factorization with
   partial pivoting) with its BLAS-1 call structure, column-cyclic
   distribution.  Compiles under all three strategies, verifies the
   factorization against a native OCaml LU, and reports the communication
   behaviour that makes interprocedural compilation essential.

     dune exec examples/dgefa_demo.exe
*)

let () =
  let n = 32 in
  let source = Fd_workloads.Dgefa.source ~n () in
  Fmt.pr "dgefa, n = %d, P = 4, column-cyclic distribution@.@." n;
  List.iter
    (fun strategy ->
      let opts = { Fd_core.Options.default with nprocs = 4; strategy } in
      let r = Fd_core.Driver.run_source ~opts source in
      let s = r.Fd_core.Driver.stats in
      Fmt.pr "%-20s messages %6d  broadcasts %5d  elapsed %9.3f ms  %s@."
        (Fd_core.Options.strategy_name strategy)
        s.Fd_machine.Stats.messages s.Fd_machine.Stats.bcasts
        (Fd_machine.Stats.elapsed s *. 1e3)
        (if Fd_core.Driver.verified r then "verified" else "MISMATCH"))
    [ Fd_core.Options.Interproc; Fd_core.Options.Immediate;
      Fd_core.Options.Runtime_resolution ];

  (* independent check against a native LU over the same matrix *)
  let opts = { Fd_core.Options.default with nprocs = 4 } in
  let r = Fd_core.Driver.run_source ~opts source in
  let reference, _ipvt = Fd_workloads.Dgefa.reference_lu n in
  let seq = r.Fd_core.Driver.seq in
  let a_seq = List.assoc "a" seq.Fd_machine.Seq_interp.arrays in
  let max_err = ref 0.0 in
  for i = 1 to n do
    for j = 1 to n do
      let v = Fd_machine.Storage.read ~strict:false a_seq [| i; j |] in
      let err = Float.abs (Fd_frontend.Value.to_float v -. reference.(i - 1).(j - 1)) in
      if err > !max_err then max_err := err
    done
  done;
  Fmt.pr "@.max |simulated - native LU| = %g@." !max_err;
  if !max_err > 1e-6 then exit 1
