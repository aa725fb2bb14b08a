(* Regenerate the committed .fd example programs from the workload
   generators:  dune exec examples/gen_fd.exe -- [dir]
   The @regen rule in examples/regen/dune writes them there and diffs
   each against the committed file; keep its file list in sync with
   this table. *)

let programs =
  [ ("fig1.fd", Fd_workloads.Figures.fig1 ());
    ("fig4.fd", Fd_workloads.Figures.fig4 ());
    ("fig15.fd", Fd_workloads.Figures.fig15 ());
    ("jacobi1d.fd", Fd_workloads.Stencil.jacobi1d ());
    ("jacobi2d.fd", Fd_workloads.Stencil.jacobi2d ());
    ("redblack.fd", Fd_workloads.Stencil.redblack ());
    ("multi_array.fd", Fd_workloads.Stencil.multi_array ());
    ("dgefa.fd", Fd_workloads.Dgefa.source ~n:8 ());
    ("adi_dynamic.fd", Fd_workloads.Adi.dynamic ());
    ("adi_static.fd", Fd_workloads.Adi.static_ ()) ]

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  List.iter
    (fun (name, src) ->
      let path = Filename.concat dir name in
      let oc = open_out path in
      output_string oc src;
      close_out oc;
      Printf.printf "wrote %s\n" path)
    programs
