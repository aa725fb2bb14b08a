(* Third battery: affine algebra properties, overlap with
   negative offsets, recompilation with structural edits, sema corners,
   and generated-code shape under the Immediate strategy. *)

open Fd_frontend
open Fd_analysis
open Fd_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Affine algebra properties ---------------------------------------------- *)

let affine_props =
  let gen =
    QCheck2.Gen.(
      let* ci = int_range (-5) 5 in
      let* cj = int_range (-5) 5 in
      let* k = int_range (-20) 20 in
      return (Affine.add (Affine.add (Affine.var ~coeff:ci "i") (Affine.var ~coeff:cj "j"))
                (Affine.const k)))
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~name:"affine add/sub cancel"
         QCheck2.Gen.(pair gen gen)
         (fun (a, b) -> Affine.equal (Affine.sub (Affine.add a b) b) a));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~name:"affine eval is linear"
         QCheck2.Gen.(pair gen gen)
         (fun (a, b) ->
           let env v = if v = "i" then Some 3 else if v = "j" then Some (-2) else None in
           Affine.eval env (Affine.add a b) = Affine.eval env a + Affine.eval env b));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~name:"affine to_expr/of_expr roundtrip" gen
         (fun a ->
           let st = Symtab.create ~unit_name:"t" ~formal_order:[] in
           match Affine.of_expr st (Affine.to_expr a) with
           | Some a' -> Affine.equal a a'
           | None -> false));
  ]

(* --- Overlap with negative offsets -------------------------------------------- *)

let overlap_negative () =
  let src =
    "program p\n  parameter (n = 32)\n  real u(32)\n  integer i\n  distribute u(block)\n  do i = 3, n\n    u(i) = u(i-2)\n  enddo\n  print *, u(n)\nend\n"
  in
  let rows = Overlap.analyze (Driver.compile (Sema.check_source src)) in
  let r = List.find (fun r -> r.Overlap.ov_array = "u") rows in
  check_int "neg estimate" 2 r.Overlap.ov_estimated.Overlap.neg;
  check_int "no pos" 0 r.Overlap.ov_estimated.Overlap.pos

(* --- Recompilation: structural edits ------------------------------------------- *)

let recompile_new_procedure () =
  let before = Fd_workloads.Stencil.jacobi1d ~n:32 ~t:2 () in
  (* appending an unused procedure recompiles nothing existing *)
  let after = before ^ "\nsubroutine unused(q)\n  real q(32)\n  integer i\n  do i = 1, 32\n    q(i) = 0.0\n  enddo\nend\n" in
  let procs, _total = Recompile.after_edit ~before ~after () in
  check "only the new procedure" true
    (List.for_all (fun p -> String.equal p "unused") procs)

let recompile_caller_loop_change () =
  (* changing only the caller's loop bound leaves the callees alone *)
  let before = Fd_workloads.Stencil.jacobi1d ~n:32 ~t:2 () in
  let after = Str.global_replace (Str.regexp_string "t = 2") "t = 3" before in
  let procs, _ = Recompile.after_edit ~before ~after () in
  check "only main recompiles" true (procs = [ "jacobi" ])

(* --- Sema corners ----------------------------------------------------------------- *)

let sema_implicit_typing () =
  (* undeclared m is integer (i-n), undeclared q is real *)
  let cp =
    Sema.check_source "program p\n  real x\n  m = 3\n  q = 1.5\n  x = q + float(m)\nend\n"
  in
  ignore cp

let sema_elseif_chain () =
  let cp =
    Sema.check_source
      "program p\n  integer k\n  k = 2\n  if (k == 1) then\n    k = 10\n  elseif (k == 2) then\n    k = 20\n  elseif (k == 3) then\n    k = 30\n  else\n    k = 40\n  endif\n  print *, k\nend\n"
  in
  let r = Fd_machine.Seq_interp.run cp in
  check "elseif chain" true (r.Fd_machine.Seq_interp.outputs = [ "20" ])

let sema_do_negative_step_semantics () =
  let cp =
    Sema.check_source
      "program p\n  integer i, s\n  s = 0\n  do i = 5, 1, -2\n    s = s + i\n  enddo\n  print *, s\nend\n"
  in
  let r = Fd_machine.Seq_interp.run cp in
  check "5+3+1" true (r.Fd_machine.Seq_interp.outputs = [ "9" ])

(* --- Immediate strategy generated-code shape ----------------------------------------- *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let immediate_self_guard () =
  let compiled =
    Driver.compile_source
      ~opts:{ Options.default with Options.strategy = Options.Immediate }
      (Fd_workloads.Dgefa.source ~n:16 ())
  in
  let text = Fmt.str "%a" Fd_machine.Node.pp_program compiled.Codegen.program in
  (* idamax guards itself on the owner of column k and broadcasts l *)
  check "self guard in callee" true (contains text "if (my$p == mod(k - 1, 4)) then");
  check "scalar broadcast inside callee" true (contains text "broadcast l from mod(k - 1, 4)")

let interproc_caller_guard () =
  let compiled = Driver.compile_source (Fd_workloads.Dgefa.source ~n:16 ()) in
  let text = Fmt.str "%a" Fd_machine.Node.pp_program compiled.Codegen.program in
  (* under interproc the *caller* guards the idamax call *)
  check "caller guards the call" true (contains text "call idamax(a, k, l)");
  check "pivot column broadcast hoisted before the j loop" true
    (contains text "broadcast a(");
  check "cyclic j loop alignment" true (contains text ", 16, 4")

(* --- Runtime-res generated-code shape -------------------------------------------------- *)

let runtime_res_shape () =
  let compiled =
    Driver.compile_source
      ~opts:{ Options.default with Options.strategy = Options.Runtime_resolution }
      (Fd_workloads.Figures.fig1 ~n:16 ~shift:2 ())
  in
  let text = Fmt.str "%a" Fd_machine.Node.pp_program compiled.Codegen.program in
  check "runtime ownership query" true (contains text "owner$(x,");
  check "per-element guarded send" true (contains text "send x(i + 2:i + 2)")

let suite =
  [
    Alcotest.test_case "overlap negative offsets" `Quick overlap_negative;
    Alcotest.test_case "recompile new procedure" `Quick recompile_new_procedure;
    Alcotest.test_case "recompile caller loop change" `Quick recompile_caller_loop_change;
    Alcotest.test_case "sema implicit typing" `Quick sema_implicit_typing;
    Alcotest.test_case "sema elseif chain" `Quick sema_elseif_chain;
    Alcotest.test_case "do negative step" `Quick sema_do_negative_step_semantics;
    Alcotest.test_case "immediate self-guard shape" `Quick immediate_self_guard;
    Alcotest.test_case "interproc caller-guard shape" `Quick interproc_caller_guard;
    Alcotest.test_case "runtime-res shape" `Quick runtime_res_shape;
  ]
  @ affine_props

(* --- Partition log --------------------------------------------------------------- *)

let partition_log () =
  let compiled = Driver.compile_source (Fd_workloads.Dgefa.source ~n:16 ()) in
  let log =
    List.map
      (fun d -> (d.Codegen.d_proc, Fmt.str "%a" Codegen.pp_decision d))
      (Codegen.decisions compiled)
  in
  let for_proc p = List.filter (fun (q, _) -> String.equal q p) log in
  check "every loop logged" true (List.length log >= 7);
  check "swaprow partitioned" true
    (List.exists (fun (_, l) -> contains l "partitioned") (for_proc "swaprow"));
  check "dgefa j loop symbolic" true
    (List.exists (fun (_, l) -> contains l "symbolically") (for_proc "dgefa"));
  check "idamax replicated" true
    (List.for_all (fun (_, l) -> contains l "replicated") (for_proc "idamax"))

let suite = suite @ [ Alcotest.test_case "partition log" `Quick partition_log ]
