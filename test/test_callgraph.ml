(* Augmented call graph, topological orders, interprocedural side
   effects, and edit-time summaries. *)

open Fd_frontend
open Fd_callgraph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let program_fig4 = Fd_workloads.Figures.fig4 ()

let acg_of src = Acg.build (Sema.check_source src)

let a_call_sites () =
  let acg = acg_of program_fig4 in
  let sites = Acg.call_sites_to acg "f1" in
  check_int "two call sites" 2 (List.length sites);
  (* both calls sit under one caller loop each *)
  List.iter
    (fun cs -> check_int "loop nest depth" 1 (List.length cs.Acg.cs_loops))
    sites

let a_loop_annotations () =
  (* the ACG records bounds and index variable of the enclosing loop *)
  let acg = acg_of program_fig4 in
  let cs = List.hd (Acg.call_sites_to acg "f1") in
  let l = List.hd cs.Acg.cs_loops in
  check "loop var" true (l.Fd_analysis.Sections.lvar = "i" || l.Fd_analysis.Sections.lvar = "j");
  check "step 1" true (l.Fd_analysis.Sections.lstep = 1)

let a_topo () =
  let acg = acg_of (Fd_workloads.Dgefa.source ~n:8 ()) in
  let order = Acg.topo_order acg in
  let pos name =
    let rec go i = function
      | [] -> -1
      | x :: _ when String.equal x name -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 order
  in
  check "main first" true (pos "lu" < pos "dgefa");
  check "dgefa before its callees" true
    (pos "dgefa" < pos "idamax" && pos "dgefa" < pos "daxpy");
  let rt = Acg.reverse_topo_order acg in
  check "reverse ends with main" true (List.hd (List.rev rt) = "lu")

let a_recursion_detected () =
  let src =
    "program p\n  call f()\nend\nsubroutine f()\n  call g()\nend\nsubroutine g()\n  call f()\nend\n"
  in
  check "recursive" true (Acg.is_recursive (acg_of src))

let a_bindings () =
  let acg = acg_of program_fig4 in
  let cs = List.hd (Acg.call_sites_to acg "f1") in
  match Acg.bindings acg cs.Acg.callee cs.Acg.actuals with
  | [ ("z", Ast.Var _); ("i", Ast.Var _) ] -> ()
  | _ -> Alcotest.fail "unexpected bindings"

let e_side_effects () =
  let acg = acg_of (Fd_workloads.Dgefa.source ~n:8 ()) in
  let eff = Side_effects.compute acg in
  (* idamax modifies l (through the formal) and references a *)
  check "idamax mods l" true (Side_effects.S.mem "l" (Side_effects.gmod eff "idamax"));
  check "idamax refs a" true (Side_effects.S.mem "a" (Side_effects.gref eff "idamax"));
  (* dgefa transitively modifies a (through dscal/daxpy/swaprow) *)
  check "dgefa mods a" true (Side_effects.S.mem "a" (Side_effects.gmod eff "dgefa"));
  (* lu's Appear set includes everything it passes down *)
  check "lu appear a" true (Side_effects.S.mem "a" (Side_effects.appear eff "lu"))

let e_translation_drops_locals () =
  let src =
    "program p\n  real x(4)\n  call f(x)\nend\nsubroutine f(y)\n  real y(4), tmp(4)\n  integer i\n  do i = 1, 4\n    tmp(i) = y(i)\n    y(i) = tmp(i)\n  enddo\nend\n"
  in
  let acg = acg_of src in
  let eff = Side_effects.compute acg in
  check "caller sees x modified" true (Side_effects.S.mem "x" (Side_effects.gmod eff "p"));
  check "callee local does not escape" false
    (Side_effects.S.mem "tmp" (Side_effects.gmod eff "p"))

let s_summary () =
  let cp = Sema.check_source (Fd_workloads.Dgefa.source ~n:8 ()) in
  let cu = Sema.find_unit_exn cp "dgefa" in
  let s = Local_summary.of_unit cu in
  check_int "call sigs" 5 (List.length (Fd_support.Listx.dedup ~equal:(=) s.Local_summary.call_sigs));
  check_int "loop depth" 2 s.Local_summary.loop_depth;
  check "mod includes ipvt" true (Side_effects.S.mem "ipvt" s.Local_summary.local_mod)

let s_summary_digest_stability () =
  let cp1 = Sema.check_source (Fd_workloads.Dgefa.source ~n:8 ()) in
  let cp2 = Sema.check_source (Fd_workloads.Dgefa.source ~n:8 ()) in
  let d cu = (Local_summary.of_unit cu).Local_summary.source_digest in
  List.iter2
    (fun a b -> check "digests stable" true (String.equal (d a) (d b)))
    cp1.Sema.units cp2.Sema.units;
  let cp3 = Sema.check_source (Fd_workloads.Dgefa.source ~n:16 ()) in
  let dg name cp = d (Sema.find_unit_exn cp name) in
  check "digest changes with source" false
    (String.equal (dg "dgefa" cp1) (dg "dgefa" cp3))

let suite =
  [
    Alcotest.test_case "acg call sites" `Quick a_call_sites;
    Alcotest.test_case "acg loop annotations" `Quick a_loop_annotations;
    Alcotest.test_case "acg topological order" `Quick a_topo;
    Alcotest.test_case "acg recursion detection" `Quick a_recursion_detected;
    Alcotest.test_case "acg bindings" `Quick a_bindings;
    Alcotest.test_case "gmod/gref transitive" `Quick e_side_effects;
    Alcotest.test_case "effects translation drops locals" `Quick e_translation_drops_locals;
    Alcotest.test_case "local summary" `Quick s_summary;
    Alcotest.test_case "summary digest stability" `Quick s_summary_digest_stability;
  ]
