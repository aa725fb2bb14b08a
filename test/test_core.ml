(* Core compiler tests: reaching decompositions (the paper's Figure 7
   worked example), procedure cloning (Figure 8), closed-form fitting,
   communication emission, dynamic-decomposition optimization passes,
   overlap analysis, and recompilation analysis. *)

open Fd_support
open Fd_frontend
open Fd_callgraph
open Fd_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- Reaching decompositions (paper Figure 7) ---------------------------- *)

let fig7_setup () =
  let cp = Sema.check_source (Fd_workloads.Figures.fig4 ()) in
  let acg = Acg.build cp in
  (acg, Reaching_decomps.compute ~sink:(Diag.sink ()) acg)

let rd_fig7 () =
  let _acg, rd = fig7_setup () in
  (* Reaching(F1) must contain both the row and the column distribution
     for the formal z (the paper's { (block,:), (:,block) } for Z) *)
  let fact = Reaching_decomps.reaching_of rd "f1" in
  match Reaching_decomps.SM.find_opt "z" fact with
  | Some r ->
    check_int "two decompositions reach z" 2 (Decomp.Set.cardinal r.Decomp.decomps);
    let kinds =
      List.map Decomp.to_string (Decomp.Set.elements r.Decomp.decomps)
      |> List.sort compare
    in
    check_str "col" "((:,block))" (Fmt.str "(%s)" (List.nth kinds 0));
    check_str "row" "((block,:))" (Fmt.str "(%s)" (List.nth kinds 1))
  | None -> Alcotest.fail "no reaching info for z"

let rd_align_permutation () =
  (* ALIGN y(i,j) WITH d(j,i); DISTRIBUTE d(block,:) gives y (:,block) *)
  let cp =
    Sema.check_source
      "program p\n  real y(4,4)\n  integer i\n  decomposition d(4,4)\n  align y(i,j) with d(j,i)\n  distribute d(block,:)\n  do i = 1, 4\n    y(1,i) = 0.0\n  enddo\nend\n"
  in
  let acg = Acg.build cp in
  let rd = Reaching_decomps.compute ~sink:(Diag.sink ()) acg in
  let u = (Acg.proc acg "p").Acg.cu.Sema.unit_ in
  (* find the assignment statement *)
  let sid = ref (-1) in
  Ast.iter_stmts
    (fun s -> match s.Ast.kind with Ast.Assign _ -> sid := s.Ast.sid | _ -> ())
    u.Ast.body;
  match Reaching_decomps.unique_at rd "p" !sid "y" with
  | Some d -> check_str "permuted distribution" "(:,block)" (Decomp.to_string d)
  | None -> Alcotest.fail "no decomposition for y"

let rd_dynamic_scoping () =
  (* a DISTRIBUTE inside a callee must not leak into the caller *)
  let src =
    "program p\n  real x(8)\n  integer i\n  distribute x(block)\n  call f(x)\n  do i = 1, 8\n    x(i) = 0.0\n  enddo\nend\nsubroutine f(x)\n  real x(8)\n  distribute x(cyclic)\nend\n"
  in
  let cp = Sema.check_source src in
  let acg = Acg.build cp in
  let rd = Reaching_decomps.compute ~sink:(Diag.sink ()) acg in
  let u = (Acg.proc acg "p").Acg.cu.Sema.unit_ in
  let sid = ref (-1) in
  Ast.iter_stmts
    (fun s -> match s.Ast.kind with Ast.Assign _ -> sid := s.Ast.sid | _ -> ())
    u.Ast.body;
  match Reaching_decomps.unique_at rd "p" !sid "x" with
  | Some d -> check_str "callee change undone on return" "(block)" (Decomp.to_string d)
  | None -> Alcotest.fail "no decomposition for x"

(* --- Cloning (paper Figure 8) --------------------------------------------- *)

let clone cp =
  let acg = Acg.build cp in
  let sink = Diag.sink () in
  Cloning.apply ~sink cp ~acg ~rd:(Reaching_decomps.compute ~sink acg)
    ~effects:(Side_effects.compute acg)

(* Each procedure is solved once per compile, and a clone's re-solve
   does not repeat its original's ALIGN warning. *)
let cl_one_align_warning () =
  let src =
    "program p\n  real x(8), y(8)\n  distribute x(block)\n  distribute y(cyclic)\n  call f(x)\n  call f(y)\nend\nsubroutine f(z)\n  real z(8), w(8)\n  integer i\n  decomposition d(8)\n  align w(i) with d(i)\n  align w(i) with d(i+1)\n  distribute d(block)\n  do i = 1, 7\n    w(i) = 1.0\n    z(i) = z(i+1) + w(i)\n  enddo\nend\n"
  in
  List.iter
    (fun strategy ->
      let sink = Diag.sink () in
      let compiled =
        Driver.compile_source ~sink ~opts:{ Options.default with Options.strategy } src
      in
      let name = Options.strategy_name strategy in
      check_int (name ^ ": clones") (if strategy = Options.Runtime_resolution then 0 else 1)
        compiled.Codegen.clone_result.Cloning.clones_made;
      check_int (name ^ ": one ALIGN warning") 1
        (List.length
           (List.filter
              (fun (d : Diag.t) ->
                d.Diag.message = "multiple differing ALIGNs for w; using the last")
              (Diag.take_warnings_of sink))))
    [ Options.Interproc; Options.Immediate; Options.Runtime_resolution ]

let cl_fig4 () =
  let cp = Sema.check_source (Fd_workloads.Figures.fig4 ()) in
  let r = clone cp in
  check_int "one clone made" 1 r.Cloning.clones_made;
  check_int "three units now" 3 (List.length r.Cloning.cp.Sema.units);
  (* the clone's origin maps back to f1 *)
  let clone =
    List.find
      (fun cu -> String.length cu.Sema.unit_.Ast.uname > 2)
      r.Cloning.cp.Sema.units
  in
  check_str "origin" "f1" (Cloning.origin_of r clone.Sema.unit_.Ast.uname)

let cl_no_clone_when_uniform () =
  (* two calls with the same decomposition share one version *)
  let src =
    "program p\n  real x(8), y(8)\n  distribute x(block)\n  distribute y(block)\n  call f(x)\n  call f(y)\nend\nsubroutine f(z)\n  real z(8)\n  integer i\n  do i = 1, 8\n    z(i) = 0.0\n  enddo\nend\n"
  in
  let r = clone (Sema.check_source src) in
  check_int "no clones" 0 r.Cloning.clones_made

let cl_filter_by_appear () =
  (* differing decompositions on an *unreferenced* formal must not clone *)
  let src =
    "program p\n  real x(8), y(8)\n  integer i\n  distribute x(block)\n  distribute y(cyclic)\n  call f(x, y)\n  call f(y, x)\nend\nsubroutine f(a, b)\n  real a(8), b(8)\n  integer i\n  do i = 1, 8\n    a(i) = 0.0\n  enddo\nend\n"
  in
  (* b unreferenced: call signatures differ on a (block vs cyclic), so we
     still get a clone for a, but not an extra one for b *)
  let r = clone (Sema.check_source src) in
  check_int "one clone (for a only)" 1 r.Cloning.clones_made

(* --- Closed-form fitting ---------------------------------------------------- *)

let fit_linear_family () =
  let sets = Array.init 4 (fun p -> Iset.range ((25 * p) + 1) ((25 * p) + 25)) in
  match Fit.fit (Dense_fit.family_of_array sets) with
  | Some { Fit.f_lo; f_hi; f_guard = None; _ } ->
    check_str "lo" "25 * my$p + 1" (Ast_printer.expr_to_string f_lo);
    check_str "hi" "25 * my$p + 25" (Ast_printer.expr_to_string f_hi)
  | _ -> Alcotest.fail "expected guardless linear fit"

let fit_min_clip () =
  let sets = Array.init 4 (fun p -> Iset.range ((25 * p) + 1) (min 95 ((25 * p) + 25))) in
  match Fit.fit (Dense_fit.family_of_array sets) with
  | Some { Fit.f_hi; _ } ->
    check_str "hi clipped" "min(25 * my$p + 25, 95)" (Ast_printer.expr_to_string f_hi)
  | None -> Alcotest.fail "expected fit"

let fit_empty_guard () =
  (* only processors 1..3 have sets: fit must guard *)
  let sets =
    Array.init 4 (fun p -> if p = 0 then Iset.empty else Iset.range ((25 * p) + 1) ((25 * p) + 5))
  in
  match Fit.fit (Dense_fit.family_of_array sets) with
  | Some { Fit.f_guard = Some g; _ } ->
    check_str "guard" "my$p >= 1" (Ast_printer.expr_to_string g)
  | _ -> Alcotest.fail "expected a guard"

let fit_table_fallback () =
  let values = [ (0, 0, Lanes.Sconst 3); (1, 1, Lanes.Sconst 1); (2, 2, Lanes.Sconst 4); (3, 3, Lanes.Sconst 1) ] in
  let e = Fit.expr_of_lanes values in
  check_str "tab fallback" "tab$(my$p, 3, 1, 4, 1)" (Ast_printer.expr_to_string e)

(* A mask with no closed form is a table; single pids at a constant
   stride are a parity guard with the bounds the progression needs. *)
let fit_guard_noncontiguous () =
  let guard nprocs mask =
    match Fit.guard_of_mask ~nprocs mask with
    | Some g -> Ast_printer.expr_to_string g
    | None -> Alcotest.fail "expected guard"
  in
  check_str "table guard" "tab$(my$p, 1, 0, 1, 1, 0) == 1" (guard 5 [ (0, 0); (2, 3) ]);
  check_str "parity guard" "mod(my$p, 2) == 0" (guard 4 [ (0, 0); (2, 2) ]);
  check_str "bounded parity guard" "mod(my$p, 3) == 1 .and. my$p >= 4 .and. my$p <= 7"
    (guard 11 [ (4, 4); (7, 7) ])

let fit_cyclic_family () =
  let sets =
    Array.init 4 (fun p -> Iset.of_triplet (Triplet.make ~lo:(p + 1) ~hi:16 ~step:4))
  in
  match Fit.fit (Dense_fit.family_of_array sets) with
  | Some { Fit.f_lo; f_step; _ } ->
    check_str "lo" "my$p + 1" (Ast_printer.expr_to_string f_lo);
    check_str "step" "4" (Ast_printer.expr_to_string f_step)
  | None -> Alcotest.fail "expected fit"

(* --- Communication emission -------------------------------------------------- *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let comm_shift_block () =
  let layout =
    { Fd_machine.Layout.bounds = [ (1, 100) ]; dist_dim = Some 0;
      dist = Fd_machine.Layout.Block 25 }
  in
  (* every processor needs its block shifted by +5, clipped to the array *)
  let need = Fd_machine.Layout.partition layout ~nprocs:4 ~shift:(-5) (Triplet.range 1 100) in
  let stmts =
    Comm.emit_section_comm_multi ~nprocs:4 ~tag:7 ~layout ~dim:0 ~parts:[ ("x", need, []) ] ()
  in
  (* one guarded send + one guarded recv *)
  check_int "two guarded statements" 2 (List.length stmts);
  let s = Fmt.str "%a" Fmt.(list ~sep:(any "") (Fd_machine.Node.pp_nstmt 0)) stmts in
  check "send to left neighbor" true (contains s "to my$p - 1");
  check "recv from right neighbor" true (contains s "from my$p + 1")

let comm_local_no_messages () =
  let layout =
    { Fd_machine.Layout.bounds = [ (1, 100) ]; dist_dim = Some 0;
      dist = Fd_machine.Layout.Block 25 }
  in
  let owned = Fd_machine.Layout.partition layout ~nprocs:4 ~shift:0 (Triplet.range 1 100) in
  let stmts =
    Comm.emit_section_comm_multi ~nprocs:4 ~tag:1 ~layout ~dim:0 ~parts:[ ("x", owned, []) ] ()
  in
  check_int "no communication when local" 0 (List.length stmts)

let comm_owner_exprs () =
  let block =
    { Fd_machine.Layout.bounds = [ (1, 100) ]; dist_dim = Some 0;
      dist = Fd_machine.Layout.Block 25 }
  in
  check_str "block owner" "min((k - 1) / 25, 3)"
    (Ast_printer.expr_to_string (Comm.owner_expr ~nprocs:4 block (Ast.Var "k")));
  let cyc =
    { Fd_machine.Layout.bounds = [ (1, 100) ]; dist_dim = Some 0;
      dist = Fd_machine.Layout.Cyclic }
  in
  check_str "cyclic owner" "mod(k - 1, 4)"
    (Ast_printer.expr_to_string (Comm.owner_expr ~nprocs:4 cyc (Ast.Var "k")))

(* --- Dynamic decomposition passes --------------------------------------------- *)

let remap_counts level =
  let opts = { Options.default with Options.remap_level = level } in
  let r = Driver.run_source ~opts (Fd_workloads.Figures.fig15 ~n:64 ~t:10 ()) in
  assert (Driver.verified r);
  ( r.Driver.stats.Fd_machine.Stats.remaps,
    r.Driver.stats.Fd_machine.Stats.remap_marks )

let dd_ladder () =
  let none_p, _ = remap_counts Options.Remap_none in
  let live_p, _ = remap_counts Options.Remap_live in
  let hoist_p, _ = remap_counts Options.Remap_hoist in
  let kill_p, kill_m = remap_counts Options.Remap_kill in
  (* 4T+2 / 2T+2 / 4 / 2+2 for T=10 *)
  check_int "none level: 4T+2" 42 none_p;
  check_int "live level: 2T+2" 22 live_p;
  check_int "hoist level: 4" 4 hoist_p;
  check_int "kill level physical" 2 kill_p;
  check_int "kill level mark-only" 2 kill_m

let dd_results_equal_across_levels () =
  let src = Fd_workloads.Figures.fig15 ~n:32 ~t:3 () in
  List.iter
    (fun level ->
      let opts = { Options.default with Options.remap_level = level } in
      let r = Driver.run_source ~opts src in
      check "verified at every level" true (Driver.verified r))
    [ Options.Remap_none; Options.Remap_live; Options.Remap_hoist; Options.Remap_kill ]

(* --- Overlap analysis ------------------------------------------------------------ *)

let ov_estimate_vs_actual () =
  let cp = Sema.check_source (Fd_workloads.Stencil.shifts ~n:64 ~widths:[ 2; 4 ] ()) in
  let rows = Overlap.analyze (Driver.compile cp) in
  let top = List.find (fun r -> r.Overlap.ov_proc = "shifts" && r.Overlap.ov_array = "x") rows in
  check_int "estimate pos" 4 top.Overlap.ov_estimated.Overlap.pos;
  check_int "actual pos" 4 top.Overlap.ov_actual.Overlap.pos;
  check_int "no negative overlap" 0 top.Overlap.ov_estimated.Overlap.neg

let examples_dir = if Sys.file_exists "../examples" then "../examples" else "examples"

let example name =
  let file = Filename.concat examples_dir name in
  Driver.check_source ~file (In_channel.with_open_bin file In_channel.input_all)

(* --- Dataflow work per node ---------------------------------------------------- *)

(* The solver's ordered worklist visits a node about once outside
   loops: over the reaching-decomposition, remap and liveness solves of
   one compile of each example and of 200 generated programs (3:1 1-D
   and 2-D), under every strategy at P = 4, it calls the transfer
   fewer than 1.6 times per CFG node.  A FIFO queue seeded in index
   order read 2.33. *)
let df_visits_per_node () =
  let st = Random.State.make [| 43 |] in
  let generated =
    List.init 200 (fun i ->
      Sema.check_source
        (if i mod 4 = 3 then Fd_workloads.Gen.random_source2d st
         else Fd_workloads.Gen.random_source st))
  in
  let examples =
    Sys.readdir examples_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".fd")
    |> List.sort compare |> List.map example
  in
  let nodes = ref 0 and visits = ref 0 in
  List.iter
    (fun cp ->
      List.iter
        (fun strategy ->
          let compiled =
            Driver.compile ~opts:{ Options.default with Options.strategy; nprocs = 4 } cp
          in
          List.iter
            (fun (w : Fd_analysis.Dataflow.work) ->
              nodes := !nodes + w.nodes;
              visits := !visits + w.visits)
            [ compiled.Codegen.state.Codegen.flow;
              Reaching_decomps.work compiled.Codegen.state.Codegen.rd ])
        [ Options.Interproc; Options.Immediate; Options.Runtime_resolution ])
    (examples @ generated);
  let ratio = float_of_int !visits /. float_of_int !nodes in
  Printf.printf "dataflow: %d visits over %d nodes (%.3f per node)\n" !visits !nodes ratio;
  check (Printf.sprintf "%.3f visits per node < 1.6" ratio) true (ratio < 1.6)

(* --- Codegen's cost per compile ----------------------------------------------- *)

(* The 10 examples and 200 generated programs (3:1 1-D and 2-D), as the
   compile-mix workload draws them. *)
let codegen_corpus () =
  let st = Random.State.make [| 46 |] in
  let generated =
    List.init 200 (fun i ->
      Sema.check_source
        (if i mod 4 = 3 then Fd_workloads.Gen.random_source2d st
         else Fd_workloads.Gen.random_source st))
  in
  let examples =
    Sys.readdir examples_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".fd")
    |> List.sort compare |> List.map example
  in
  examples @ generated

(* Codegen's minor words per compile over the corpus under the three
   strategies at P in {4, 64}, the analyses up to cloning excluded.
   Each statement's messages are computed once per key and its facts
   (reads, distribution, loop context, class) once per procedure: 27,099
   words per compile, against 31,371 when legality and the
   communication pass each computed their own. *)
let cg_alloc_per_compile () =
  let words = ref 0.0 and compiles = ref 0 in
  List.iter
    (fun cp ->
      List.iter
        (fun strategy ->
          List.iter
            (fun nprocs ->
              let opts = { Options.default with Options.strategy; nprocs } in
              let cloned = Driver.clone ~opts cp in
              let before = Gc.minor_words () in
              ignore (Codegen.compile_analyzed ~sink:(Diag.sink ()) opts cloned);
              words := !words +. (Gc.minor_words () -. before);
              incr compiles)
            [ 4; 64 ])
        [ Options.Interproc; Options.Immediate; Options.Runtime_resolution ])
    (codegen_corpus ());
  let per_compile = !words /. float_of_int !compiles in
  Printf.printf "codegen: %.0f minor words per compile over %d compiles\n" per_compile !compiles;
  if per_compile > 28_500.0 then
    Alcotest.failf "%.0f minor words per compile (bound 28,500)" per_compile

(* Partition legality and the communication pass ask for the same
   statement's messages under the same loop partitions: each (procedure,
   statement, nest partitions, constraint) key is computed once and then
   reused.  jacobi1d's sweep loop keeps its candidate partition, so the
   communication pass reuses what legality computed for its body. *)
let cg_messages_once () =
  let opts = { Options.default with Options.strategy = Options.Interproc; nprocs = 4 } in
  let evaluated = ref 0 and reused = ref 0 in
  Sys.readdir examples_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".fd")
  |> List.sort compare
  |> List.iter (fun name ->
         let compiled = Driver.compile ~opts (example name) in
         let w = compiled.Codegen.state.Codegen.msgs in
         let keys = w.Codegen.evaluated in
         check_int (name ^ ": no key computed twice") (List.length keys)
           (List.length (List.sort_uniq compare keys));
         evaluated := !evaluated + List.length keys;
         reused := !reused + List.length w.Codegen.reused;
         if name = "jacobi1d.fd" then begin
           let d =
             List.find
               (fun (d : Codegen.decision) -> d.Codegen.d_proc = "sweep")
               (Codegen.decisions compiled)
           in
           check "sweep's loop is partitioned" true
             (contains (Fmt.str "%a" Codegen.pp_decision d) "partitioned on v");
           let body =
             let u = Sema.find_unit_exn compiled.Codegen.clone_result.Cloning.cp "sweep" in
             let out = ref [] in
             Ast.iter_stmts
               (fun s ->
                 match s.Ast.kind with
                 | Ast.Do dd when s.Ast.sid = d.Codegen.d_sid ->
                   out := List.map (fun (b : Ast.stmt) -> b.Ast.sid) dd.Ast.body
                 | _ -> ())
               u.Sema.unit_.Ast.body;
             !out
           in
           check "the loop has a body" true (body <> []);
           List.iter
             (fun sid ->
               check (Fmt.str "s%d reused under the decided partition" sid) true
                 (List.exists
                    (fun (k : Codegen.msg_key) ->
                      k.Codegen.mk_proc = "sweep" && k.Codegen.mk_sid = sid
                      && k.Codegen.mk_parts = [ d.Codegen.d_part ])
                    w.Codegen.reused))
             body
         end);
  Printf.printf "messages: %d computed, %d reused\n" !evaluated !reused;
  check "some reuse" true (!reused > 0)

let overlap_at nprocs cp =
  Overlap.analyze (Driver.compile ~opts:{ Options.default with Options.nprocs } cp)

let ov_estimate_superset () =
  (* estimated >= actual everywhere (the paper's imprecision direction),
     on every example at every P *)
  let names =
    Sys.readdir examples_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".fd")
    |> List.sort compare
  in
  check_int "ten examples" 10 (List.length names);
  List.iter
    (fun name ->
      let cp = example name in
      List.iter
        (fun nprocs ->
          List.iter
            (fun r ->
              let what = Fmt.str "%s P=%d %a" name nprocs Overlap.pp_row r in
              check what true
                (r.Overlap.ov_estimated.Overlap.pos >= r.Overlap.ov_actual.Overlap.pos
                && r.Overlap.ov_estimated.Overlap.neg >= r.Overlap.ov_actual.Overlap.neg))
            (overlap_at nprocs cp))
        [ 1; 3; 4; 7; 64 ])
    names

(* The actual column is what codegen sent for at the compiled P: no
   processor reads nonlocal data at P = 1, and at P = 4 the red sweep
   reads only its left neighbour off-processor, the black sweep only its
   right one.  At P = 3 both sweeps need both sides. *)
let ov_is_codegens () =
  let cp = example "redblack.fd" in
  let rows nprocs = List.map (Fmt.str "%a" Overlap.pp_row) (overlap_at nprocs cp) in
  Alcotest.(check (list string))
    "P=1"
    [ "redblack   u      dim 1   estimated [-1,+1]   actual [-0,+0]";
      "relax_black u      dim 1   estimated [-1,+1]   actual [-0,+0]";
      "relax_red  u      dim 1   estimated [-1,+1]   actual [-0,+0]" ]
    (rows 1);
  Alcotest.(check (list string))
    "P=3"
    [ "redblack   u      dim 1   estimated [-1,+1]   actual [-1,+1]";
      "relax_black u      dim 1   estimated [-1,+1]   actual [-1,+1]";
      "relax_red  u      dim 1   estimated [-1,+1]   actual [-1,+1]" ]
    (rows 3);
  Alcotest.(check (list string))
    "P=4"
    [ "redblack   u      dim 1   estimated [-1,+1]   actual [-1,+1]";
      "relax_black u      dim 1   estimated [-1,+1]   actual [-0,+1]";
      "relax_red  u      dim 1   estimated [-1,+1]   actual [-1,+0]" ]
    (rows 4)

(* A legality trial that rejects its loop's partition still records
   the shifts the loop's reads need: colsweep's i loop stays replicated
   (its index runs along the distributed dimension of u(i-1,j) with a
   carried dependence), and run-time resolution fetches exactly
   u(i-1,j), so adi and colsweep read [-1,+0] on dim 1. *)
let ov_rejected_trial_shifts () =
  let rows = List.map (Fmt.str "%a" Overlap.pp_row) (overlap_at 4 (example "adi_static.fd")) in
  Alcotest.(check (list string))
    "P=4"
    [ "adi        u      dim 1   estimated [-1,+0]   actual [-1,+0]";
      "adi        u      dim 2   estimated [-1,+0]   actual [-0,+0]";
      "colsweep   u      dim 1   estimated [-1,+0]   actual [-1,+0]";
      "rowsweep   u      dim 2   estimated [-1,+0]   actual [-0,+0]" ]
    rows

(* fig4 calls f1 on x, distributed on dim 1, and on y, on dim 2;
   cloning gives the y calls their own f1$1, whose reads of z(k+5, i)
   stay on the processor.  Only the x side needs overlap. *)
let ov_follows_cloning () =
  let cp = Sema.check_source (Fd_workloads.Figures.fig4 ()) in
  Alcotest.(check (list string))
    "rows"
    [ "f1         z      dim 1   estimated [-0,+5]   actual [-0,+5]";
      "f1$1       z      dim 1   estimated [-0,+5]   actual [-0,+0]";
      "p1         x      dim 1   estimated [-0,+5]   actual [-0,+5]";
      "p1         y      dim 1   estimated [-0,+5]   actual [-0,+0]" ]
    (List.map (Fmt.str "%a" Overlap.pp_row) (Overlap.analyze (Driver.compile cp)))

(* --- Recompilation analysis ------------------------------------------------------ *)

let rc_noop () =
  let src = Fd_workloads.Dgefa.source ~n:8 () in
  let r, _total = Recompile.after_edit ~before:src ~after:src () in
  check_int "no-op edit recompiles nothing" 0 (List.length r)

let rc_body_edit_local () =
  let before = Fd_workloads.Dgefa.source ~n:8 () in
  let after =
    Str.global_replace
      (Str.regexp_string "a(i,j) = a(i,j) + a(k,j) * a(i,k)")
      "a(i,j) = a(i,j) + 2.0 * a(k,j) * a(i,k)" before
  in
  let r, _ = Recompile.after_edit ~before ~after () in
  check "only daxpy recompiles" true (r = [ "daxpy" ])

let rc_distribution_edit_global () =
  let before = Fd_workloads.Dgefa.source ~n:8 () in
  let after =
    Str.global_replace (Str.regexp_string "distribute a(:,cyclic)")
      "distribute a(:,block)" before
  in
  let r, total = Recompile.after_edit ~before ~after () in
  check_int "everything recompiles" total (List.length r)

let rc_export_change_propagates () =
  (* making dscal touch column k+1 as well changes its constraint, which
     must force the caller to recompile *)
  let before = Fd_workloads.Dgefa.source ~n:8 () in
  let after =
    Str.global_replace
      (Str.regexp_string "a(i,k) = -a(i,k) / t")
      "a(i,k) = -a(i,k) / t\n    a(i,k) = a(i,k) + 0.0" before
  in
  let r, _ = Recompile.after_edit ~before ~after () in
  check "dscal recompiles" true (List.mem "dscal" r)

let rc_shift_width_propagates () =
  (* narrowing op0's shift from a(i+2) to a(i+1) changes the message its
     caller sends under delayed instantiation, though Exports.pp prints
     the same summary either way *)
  let src shift =
    String.concat "\n"
      [ "program p"; "  real a(40), b(40)"; "  integer i"; "  distribute a(block)";
        "  distribute b(block)"; "  do i = 1, 40"; "    a(i) = i"; "  enddo";
        "  call op0(a, b)"; "end"; "subroutine op0(a, b)"; "  real a(40), b(40)";
        "  integer i"; "  do i = 1, 38"; "    b(i) = a(i+" ^ shift ^ ")"; "  enddo"; "end"; "" ]
  in
  let r, _ = Recompile.after_edit ~before:(src "2") ~after:(src "1") () in
  check "caller and callee recompile" true (List.sort compare r = [ "op0"; "p" ])

let suite =
  [
    Alcotest.test_case "reaching decomps fig7" `Quick rd_fig7;
    Alcotest.test_case "reaching align permutation" `Quick rd_align_permutation;
    Alcotest.test_case "reaching dynamic scoping" `Quick rd_dynamic_scoping;
    Alcotest.test_case "one ALIGN warning per compile" `Quick cl_one_align_warning;
    Alcotest.test_case "cloning fig4" `Quick cl_fig4;
    Alcotest.test_case "no clone when uniform" `Quick cl_no_clone_when_uniform;
    Alcotest.test_case "clone filtered by Appear" `Quick cl_filter_by_appear;
    Alcotest.test_case "fit linear family" `Quick fit_linear_family;
    Alcotest.test_case "fit min clip" `Quick fit_min_clip;
    Alcotest.test_case "fit empty guard" `Quick fit_empty_guard;
    Alcotest.test_case "fit table fallback" `Quick fit_table_fallback;
    Alcotest.test_case "fit noncontiguous guard" `Quick fit_guard_noncontiguous;
    Alcotest.test_case "fit cyclic family" `Quick fit_cyclic_family;
    Alcotest.test_case "comm shift block" `Quick comm_shift_block;
    Alcotest.test_case "comm local needs no messages" `Quick comm_local_no_messages;
    Alcotest.test_case "comm owner expressions" `Quick comm_owner_exprs;
    Alcotest.test_case "dynamic decomp ladder" `Quick dd_ladder;
    Alcotest.test_case "dynamic decomp levels all verify" `Quick dd_results_equal_across_levels;
    Alcotest.test_case "dataflow visits per node under 1.6" `Quick df_visits_per_node;
    Alcotest.test_case "codegen: minor words per compile" `Quick cg_alloc_per_compile;
    Alcotest.test_case "codegen: each message key computed once" `Quick cg_messages_once;
    Alcotest.test_case "overlap estimate vs actual" `Quick ov_estimate_vs_actual;
    Alcotest.test_case "overlap estimate is superset" `Quick ov_estimate_superset;
    Alcotest.test_case "overlap follows cloning" `Quick ov_follows_cloning;
    Alcotest.test_case "overlap is what codegen placed" `Quick ov_is_codegens;
    Alcotest.test_case "overlap keeps rejected trials' shifts" `Quick ov_rejected_trial_shifts;
    Alcotest.test_case "recompile no-op" `Quick rc_noop;
    Alcotest.test_case "recompile body edit local" `Quick rc_body_edit_local;
    Alcotest.test_case "recompile distribution global" `Quick rc_distribution_edit_global;
    Alcotest.test_case "recompile export change" `Quick rc_export_change_propagates;
    Alcotest.test_case "recompile shift width" `Quick rc_shift_width_propagates;
  ]

(* --- Aliasing (Section 6.4) -------------------------------------------------- *)

let alias_rejected () =
  (* x aliased through both formals of f, and f redistributes one of them *)
  let src =
    "program p\n  real x(8)\n  integer i\n  distribute x(block)\n  call f(x, x)\nend\nsubroutine f(a, b)\n  real a(8), b(8)\n  integer i\n  distribute a(cyclic)\n  do i = 1, 8\n    a(i) = b(i)\n  enddo\nend\n"
  in
  check "rejected" true
    (match Driver.compile_source src with
    | _ -> false
    | exception (Diag.Compile_error _ | Diag.Compile_errors _) -> true)

let alias_allowed_without_redistribution () =
  let src =
    "program p\n  real x(8)\n  integer i\n  distribute x(block)\n  do i = 1, 8\n    x(i) = float(i)\n  enddo\n  call f(x, x)\n  print *, x(1)\nend\nsubroutine f(a, b)\n  real a(8), b(8)\n  integer i\n  do i = 1, 8\n    a(i) = a(i) + 0.0 * b(i)\n  enddo\nend\n"
  in
  let r = Driver.run_source src in
  check "aliasing without redistribution still runs" true (Driver.verified r)

let alias_transitive_redistribution () =
  (* g forwards its formal to f which redistributes: still rejected *)
  let src =
    "program p\n  real x(8)\n  distribute x(block)\n  call g(x, x)\nend\nsubroutine g(a, b)\n  real a(8), b(8)\n  call f(a)\n  call f(b)\nend\nsubroutine f(c)\n  real c(8)\n  integer i\n  distribute c(cyclic)\n  do i = 1, 8\n    c(i) = 0.0\n  enddo\nend\n"
  in
  check "transitive redistribution rejected" true
    (match Driver.compile_source src with
    | _ -> false
    | exception (Diag.Compile_error _ | Diag.Compile_errors _) -> true)

let suite =
  suite
  @ [
      Alcotest.test_case "aliasing + redistribution rejected" `Quick alias_rejected;
      Alcotest.test_case "aliasing without redistribution ok" `Quick
        alias_allowed_without_redistribution;
      Alcotest.test_case "aliasing transitive redistribution" `Quick
        alias_transitive_redistribution;
    ]
