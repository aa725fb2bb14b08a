(* A tour of every compiler phase on the paper's Figure 4 program (the
   companion to docs/INTERNALS.md): the augmented call graph, reaching
   decompositions, cloning, per-loop partition decisions, export records,
   the generated SPMD node program, and a traced simulation.

     dune exec examples/compiler_tour.exe
*)

let section title = Fmt.pr "@.===== %s =====@." title

let () =
  let source = Fd_workloads.Figures.fig4 ~n:100 ~shift:5 () in
  let opts = { Fd_core.Options.default with nprocs = 4 } in

  section "source";
  Fmt.pr "%s@." source;

  let cp = Fd_core.Driver.check_source source in

  section "augmented call graph (paper Fig. 5)";
  let acg = Fd_callgraph.Acg.build cp in
  Fmt.pr "%a" Fd_callgraph.Acg.pp acg;
  Fmt.pr "compilation order: %s@."
    (String.concat " -> " (Fd_callgraph.Acg.reverse_topo_order acg));

  section "reaching decompositions before cloning (paper Fig. 7)";
  let rd = Fd_core.Reaching_decomps.compute ~sink:(Fd_support.Diag.sink ()) acg in
  Fmt.pr "Reaching(f1):@.%a" Fd_core.Reaching_decomps.pp_proc_reaching (rd, "f1");

  section "after cloning (paper Fig. 8) - whole-program compile";
  let compiled = Fd_core.Driver.compile ~opts cp in
  Fmt.pr "clones made: %d@." compiled.Fd_core.Codegen.clone_result.Fd_core.Cloning.clones_made;
  List.iter
    (fun np -> Fmt.pr "  node procedure %s@." np.Fd_machine.Node.np_name)
    compiled.Fd_core.Codegen.program.Fd_machine.Node.n_procs;

  section "computation-partition decisions";
  List.iter
    (fun (proc, line) -> Fmt.pr "%-8s %s@." proc line)
    compiled.Fd_core.Codegen.state.Fd_core.Codegen.partition_log;

  section "export records (delayed instantiation)";
  List.iter
    (fun np ->
      let name = np.Fd_machine.Node.np_name in
      Fmt.pr "%a@.@." Fd_core.Exports.pp
        (Fd_core.Codegen.export_of compiled.Fd_core.Codegen.state name))
    compiled.Fd_core.Codegen.program.Fd_machine.Node.n_procs;

  section "generated SPMD node program (paper Fig. 10)";
  Fmt.pr "%a" Fd_machine.Node.pp_program compiled.Fd_core.Codegen.program;

  section "traced simulation";
  let trace = Fd_trace.Trace.create () in
  let machine = Fd_machine.Config.make ~nprocs:4 ~trace () in
  let r = Fd_core.Driver.run_source ~opts ~machine source in
  List.iter
    (fun ev -> Fmt.pr "%a@." Fd_trace.Trace.pp_ev ev)
    (Fd_support.Listx.take 12 (Fd_trace.Trace.to_list trace));
  Fmt.pr "...@.%a@." Fd_machine.Stats.pp r.Fd_core.Driver.stats;
  Fmt.pr "verified: %b@." (Fd_core.Driver.verified r)
