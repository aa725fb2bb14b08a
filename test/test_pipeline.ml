(* Pass-manager tests: pass ordering, artifact dumps, invariant checkers
   over every workload program, deliberate corruption detection, and the
   pass report threaded through the driver. *)

open Fd_frontend
open Fd_core
open Fd_machine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let find_pass_exn name =
  match Pipeline.find_pass name with
  | Some p -> p
  | None -> Alcotest.fail ("no pass named " ^ name)

(* --- Pass ordering ------------------------------------------------------- *)

let ordering () =
  Alcotest.(check (list string))
    "pipeline order"
    [ "parse"; "sema"; "acg"; "reaching_decomps"; "side_effects"; "cloning";
      "local_summaries"; "codegen" ]
    Pipeline.pass_names;
  (* the paper's order (Section 5.2, Figure 8): cloning reads the call
     graph, the reaching decompositions and the side effects *)
  let pos name =
    let rec go i = function
      | [] -> -1
      | n :: _ when String.equal n name -> i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 Pipeline.pass_names
  in
  check "acg before reaching" true (pos "acg" < pos "reaching_decomps");
  check "reaching before side effects" true (pos "reaching_decomps" < pos "side_effects");
  check "side effects before cloning" true (pos "side_effects" < pos "cloning")

(* --- Dump rendering ------------------------------------------------------ *)

let dumps () =
  let ctx = Pipeline.of_source (Fd_workloads.Figures.fig4 ()) in
  let collected = Hashtbl.create 8 in
  let dump ~pass text = Hashtbl.replace collected pass text in
  let report =
    Pipeline.run ~dump_after:[ "acg"; "reaching_decomps"; "cloning"; "codegen" ]
      ~dump ctx
  in
  check_int "one entry per pass" (List.length Pipeline.passes) (List.length report);
  List.iter
    (fun pass ->
      match Hashtbl.find_opt collected pass with
      | Some text -> check (pass ^ " dump non-empty") true (String.length text > 0)
      | None -> Alcotest.fail ("no dump collected for " ^ pass))
    [ "acg"; "reaching_decomps"; "cloning"; "codegen" ];
  (* spot-check content: the ACG dump shows the call sites, the codegen
     dump is the SPMD program *)
  let acg_dump = Hashtbl.find collected "acg" in
  check "acg dump mentions topological order" true
    (contains acg_dump "topological order");
  let cg_dump = Hashtbl.find collected "codegen" in
  check "codegen dump mentions node program" true (String.length cg_dump > 100)

let unknown_dump_rejected () =
  let ctx = Pipeline.of_source (Fd_workloads.Figures.fig1 ()) in
  match Pipeline.run ~dump_after:[ "nosuch" ] ~dump:(fun ~pass:_ _ -> ()) ctx with
  | _ -> Alcotest.fail "unknown pass name accepted"
  | exception Fd_support.Diag.Compile_error _ -> ()

(* --- Invariants hold on every workload program --------------------------- *)

let workloads =
  [ ("fig1", Fd_workloads.Figures.fig1 ());
    ("fig4", Fd_workloads.Figures.fig4 ());
    ("fig15", Fd_workloads.Figures.fig15 ());
    ("jacobi1d", Fd_workloads.Stencil.jacobi1d ());
    ("jacobi2d", Fd_workloads.Stencil.jacobi2d ());
    ("redblack", Fd_workloads.Stencil.redblack ());
    ("multi_array", Fd_workloads.Stencil.multi_array ());
    ("dgefa", Fd_workloads.Dgefa.source ~n:8 ());
    ("adi_dynamic", Fd_workloads.Adi.dynamic ());
    ("adi_static", Fd_workloads.Adi.static_ ()) ]

let verify_workloads () =
  List.iter
    (fun (name, src) ->
      List.iter
        (fun strategy ->
          let opts = { Options.default with Options.strategy } in
          let ctx = Pipeline.of_source ~opts src in
          let report = Pipeline.run ~verify:true ctx in
          let viols = Pass.violations report in
          check
            (Fmt.str "%s/%s invariants (%s)" name
               (Options.strategy_name strategy)
               (String.concat "; " (List.map snd viols)))
            true (viols = []))
        [ Options.Interproc; Options.Immediate; Options.Runtime_resolution ])
    workloads

(* --- Deliberate corruption is caught ------------------------------------- *)

let corrupt_codegen () =
  let ctx = Pipeline.of_source (Fd_workloads.Figures.fig1 ()) in
  ignore (Pipeline.run ctx);
  let compiled = Pass.get_compiled ctx in
  let prog = compiled.Codegen.program in
  (* splice a reference to an undeclared array into the main procedure *)
  let bad = Node.N_assign (Ast.Ref ("bogus$arr", [ Ast.Int_const 1 ]), Ast.Int_const 0) in
  let procs =
    List.map
      (fun (np : Node.nproc) ->
        if String.equal np.Node.np_name prog.Node.n_main then
          { np with Node.np_body = bad :: np.Node.np_body }
        else np)
      prog.Node.n_procs
  in
  ctx.Pass.compiled <-
    Some { compiled with Codegen.program = { prog with Node.n_procs = procs } };
  let p = find_pass_exn "codegen" in
  let viols = p.Pass.p_verify ctx in
  check "undeclared array caught" true
    (List.exists
       (fun m -> contains m "bogus$arr")
       viols)

let corrupt_cloning () =
  let ctx = Pipeline.of_source (Fd_workloads.Figures.fig4 ()) in
  ignore (Pipeline.run ctx);
  let r = Pass.get_clone_result ctx in
  let cp = r.Cloning.cp in
  (* duplicate the first unit's name: cloned procedure names must be unique *)
  let dup = List.hd cp.Sema.units in
  ctx.Pass.clone_result <-
    Some { r with Cloning.cp = { cp with Sema.units = dup :: cp.Sema.units } };
  let p = find_pass_exn "cloning" in
  check "duplicate clone name caught" true (p.Pass.p_verify ctx <> []);
  (* and an origin-map entry pointing at a procedure that is not in the
     cloned program *)
  let ctx2 = Pipeline.of_source (Fd_workloads.Figures.fig4 ()) in
  ignore (Pipeline.run ctx2);
  let r2 = Pass.get_clone_result ctx2 in
  ctx2.Pass.clone_result <-
    Some { r2 with Cloning.origin = Cloning.SM.add "ghost$1" "ghost" r2.Cloning.origin };
  check "dangling origin entry caught" true (p.Pass.p_verify ctx2 <> []);
  (* and a clone whose statement ids repeat its original's *)
  let ctx3 = Pipeline.of_source (Fd_workloads.Figures.fig4 ()) in
  ignore (Pipeline.run ctx3);
  let r3 = Pass.get_clone_result ctx3 in
  let cp3 = r3.Cloning.cp in
  let f1 = Sema.find_unit_exn cp3 "f1" in
  let units =
    List.map
      (fun (cu : Sema.checked_unit) ->
        if cu.Sema.unit_.Ast.uname = "f1$1" then
          { f1 with Sema.unit_ = { f1.Sema.unit_ with Ast.uname = "f1$1" } }
        else cu)
      cp3.Sema.units
  in
  ctx3.Pass.clone_result <- Some { r3 with Cloning.cp = { cp3 with Sema.units } };
  check "duplicate statement id caught" true
    (List.exists (fun m -> contains m "duplicate statement id") (p.Pass.p_verify ctx3))

(* Cloning hands the analyses of the cloned program back to the context. *)
let cloned_analyses () =
  let ctx = Pipeline.of_source (Fd_workloads.Figures.fig4 ()) in
  ignore (Pipeline.run ctx);
  let acg = Pass.get_acg ctx in
  check "f1$1 is an ACG node" true
    (List.exists (fun (p : Fd_callgraph.Acg.proc) -> p.Fd_callgraph.Acg.pname = "f1$1")
       (Fd_callgraph.Acg.procs acg));
  check "f1$1 has a reaching solution" true
    (match Reaching_decomps.local_of (Pass.get_rd ctx) "f1$1" with
    | _ -> true
    | exception Fd_support.Diag.Compile_error _ -> false)

(* After a split the cloning dump prints the analyses the later passes
   read, those of the cloned program; without a split it prints only
   the clone summary. *)
let cloning_dump_after_split () =
  let cloning_dump src =
    let text = ref "" in
    ignore
      (Pipeline.run ~dump_after:[ "cloning" ] ~dump:(fun ~pass:_ t -> text := t)
         (Pipeline.of_source src));
    !text
  in
  Alcotest.(check string)
    "fig4 cloning dump"
    (String.concat "\n"
       [ "clones made: 1";
         "procedures: p1, f1, f1$1";
         "  f1$1 <- f1";
         "--- acg of the cloned program ---";
         "p1:";
         "  s10: call f1 [loops i]";
         "  s12: call f1$1 [loops j]";
         "f1:";
         "f1$1:";
         "";
         "topological order: p1 -> f1$1 -> f1";
         "--- reaching_decomps of the cloned program ---";
         "p1:";
         "f1:";
         "  z: {(block,:)}";
         "f1$1:";
         "  z: {(:,block)}";
         "--- side_effects of the cloned program ---";
         "p1: gmod {i,j,x,y} gref {i,j,n,x,y}";
         "f1: gmod {k,z} gref {i,k,n,z}";
         "f1$1: gmod {k,z} gref {i,k,n,z}" ])
    (cloning_dump (Fd_workloads.Figures.fig4 ()));
  Alcotest.(check string)
    "fig1 cloning dump" "clones made: 0\nprocedures: p1, f1"
    (cloning_dump (Fd_workloads.Figures.fig1 ()));
  (* fdc acg prints Driver.clone's graph *)
  let cp = Driver.check_source (Fd_workloads.Figures.fig4 ()) in
  Alcotest.(check (list string))
    "fig4 ACG nodes after cloning" [ "p1"; "f1"; "f1$1" ]
    (List.map
       (fun (p : Fd_callgraph.Acg.proc) -> p.Fd_callgraph.Acg.pname)
       (Fd_callgraph.Acg.procs (Driver.clone cp).Cloning.acg))

let report_in_run_result () =
  let r = Driver.run_source ~verify:true (Fd_workloads.Figures.fig1 ()) in
  check "run verified" true (Driver.verified r);
  check_int "report has all passes" (List.length Pipeline.passes)
    (List.length r.Driver.report);
  check "all pass invariants ok" true (Pass.report_ok r.Driver.report);
  List.iter
    (fun (e : Pass.entry) ->
      check (e.Pass.e_pass ^ " time non-negative") true (e.Pass.e_time >= 0.0))
    r.Driver.report

let json_report () =
  let ctx = Pipeline.of_source (Fd_workloads.Figures.fig1 ()) in
  let report = Pipeline.run ~verify:true ctx in
  let s = Fd_support.Json.to_string (Pipeline.report_to_json report) in
  check "json mentions every pass" true
    (List.for_all
       (fun n -> contains s (Fmt.str "\"name\":\"%s\"" n))
       Pipeline.pass_names);
  check "json ok flag" true (contains s "\"ok\":true")

let suite =
  [ Alcotest.test_case "pass ordering" `Quick ordering;
    Alcotest.test_case "dump-after rendering" `Quick dumps;
    Alcotest.test_case "unknown dump pass rejected" `Quick unknown_dump_rejected;
    Alcotest.test_case "invariants hold on all workloads" `Quick verify_workloads;
    Alcotest.test_case "corrupted codegen artifact caught" `Quick corrupt_codegen;
    Alcotest.test_case "corrupted cloning artifact caught" `Quick corrupt_cloning;
    Alcotest.test_case "cloning hands back the cloned analyses" `Quick cloned_analyses;
    Alcotest.test_case "cloning dumps the analyses a split replaced" `Quick
      cloning_dump_after_split;
    Alcotest.test_case "driver threads pass report" `Quick report_in_run_result;
    Alcotest.test_case "report JSON rendering" `Quick json_report ]
