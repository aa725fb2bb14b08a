(* COMMON blocks: parsing, the strict layout rules, decomposition
   inheritance through globals (paper Section 5.2: "global variables
   retain their decomposition from the caller"), end-to-end execution
   under every strategy, aliasing restrictions, and fuzzing. *)

open Fd_support
open Fd_frontend
open Fd_core
open Fd_machine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let strategies = [ Options.Interproc; Options.Immediate; Options.Runtime_resolution ]

let common_program = {|
program p
  parameter (n = 64)
  common /grid/ u, v, nsteps
  real u(64), v(64)
  integer nsteps
  integer i, it
  distribute u(block)
  distribute v(block)
  nsteps = 3
  do i = 1, n
    u(i) = float(i)
    v(i) = 0.0
  enddo
  do it = 1, nsteps
    call sweep()
    call copyback()
  enddo
  print *, u(1), u(n/2), nsteps
end

subroutine sweep()
  parameter (n = 64)
  common /grid/ u, v, nsteps
  real u(64), v(64)
  integer nsteps
  integer i
  do i = 1, n-1
    v(i) = 0.5 * (u(i) + u(i+1))
  enddo
  v(n) = u(n)
end

subroutine copyback()
  parameter (n = 64)
  common /grid/ u, v, nsteps
  real u(64), v(64)
  integer nsteps
  integer i
  do i = 1, n
    u(i) = v(i)
  enddo
end
|}

let rejects name src =
  Alcotest.test_case name `Quick (fun () ->
      match Sema.check_source src with
      | _ -> Alcotest.fail "expected a compile error"
      | exception (Diag.Compile_error _ | Diag.Compile_errors _) -> ())

let c_roundtrip () =
  let cp = Sema.check_source common_program in
  let printed =
    Ast_printer.program_to_string (List.map (fun cu -> cu.Sema.unit_) cp.Sema.units)
  in
  ignore (Sema.check_source printed);
  let st = (List.hd cp.Sema.units).Sema.symtab in
  check "u is common" true (Symtab.is_common st "u");
  check "block name" true (List.assoc_opt "nsteps" (Symtab.commons st) = Some "grid");
  check "local not common" false (Symtab.is_common st "i")

let c_end_to_end () =
  List.iter
    (fun strategy ->
      let opts = { Options.default with Options.strategy } in
      let r = Driver.run_source ~opts common_program in
      check (Options.strategy_name strategy) true (Driver.verified r);
      check "output" true
        (Stats.outputs r.Driver.stats = [ "2.5 33.5 3" ]))
    strategies

let c_inherited_decomposition () =
  (* sweep inherits u's block distribution through the COMMON block and
     partitions its loop accordingly *)
  let compiled = Driver.compile_source common_program in
  let log =
    List.map
      (fun d -> (d.Codegen.d_proc, Fmt.str "%a" Codegen.pp_decision d))
      (Codegen.decisions compiled)
  in
  check "sweep partitioned" true
    (List.exists
       (fun (p, l) ->
         String.equal p "sweep"
         &&
         let contains hay needle =
           let nl = String.length needle and hl = String.length hay in
           let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
           go 0
         in
         contains l "partitioned on")
       log);
  (* and its boundary shift communication is delayed to the caller *)
  let ex = Codegen.export_of compiled.Codegen.state "sweep" in
  check "shift pending on the common array" true
    (List.exists
       (function Exports.P_shift { ps_array = "u"; _ } -> true | _ -> false)
       ex.Exports.ex_comms)

let c_scalar_common_state () =
  (* a common scalar mutated in a callee is visible afterwards, also
     when the callee runs on one owner only (g reads x(7) alone, so
     it gets an owner constraint and must broadcast c as well as t) *)
  let bump =
    "program p\n  common /c/ total\n  real total\n  total = 1.0\n  call bump()\n  call bump()\n  print *, total\nend\nsubroutine bump()\n  common /c/ total\n  real total\n  total = total + 2.0\nend\n"
  in
  let owner =
    "program p\n  real x(8)\n  real s, c\n  integer i\n  common /blk/ c\n  distribute x(block)\n  do i = 1, 8\n    x(i) = float(i)\n  enddo\n  c = 0.0\n  s = 0.0\n  call g(x, s)\n  print *, s, c\nend\nsubroutine g(y, t)\n  real y(8)\n  real t, c\n  common /blk/ c\n  t = y(7)\n  c = y(7) + 1.0\nend\n"
  in
  List.iter
    (fun (src, expected) ->
      List.iter
        (fun strategy ->
          let opts = { Options.default with Options.strategy } in
          let r = Driver.run_source ~opts src in
          check (Options.strategy_name strategy) true (Driver.verified r);
          Alcotest.(check (list string)) "value" [ expected ] (Stats.outputs r.Driver.stats))
        strategies)
    [ (bump, "5"); (owner, "7 8") ]

let c_common_alias_rejected () =
  (* a common array passed as an argument to a procedure that
     redistributes it through the common: forbidden *)
  let src =
    "program p\n  common /c/ x\n  real x(8)\n  integer i\n  distribute x(block)\n  do i = 1, 8\n    x(i) = 1.0\n  enddo\n  call f(x)\nend\nsubroutine f(y)\n  common /c/ x\n  real x(8), y(8)\n  integer i\n  distribute x(cyclic)\n  do i = 1, 8\n    y(i) = x(i)\n  enddo\nend\n"
  in
  check "rejected" true
    (match Driver.compile_source src with
    | _ -> false
    | exception (Diag.Compile_error _ | Diag.Compile_errors _) -> true)

let c_fuzz () =
  let st = Random.State.make [| 0xc0; 0x44; 0x02 |] in
  for _case = 1 to 25 do
    let src = Fd_workloads.Gen.random_source ~commons:true st in
    List.iter
      (fun strategy ->
        let opts = { Options.default with Options.strategy } in
        match Driver.run_source ~opts src with
        | r ->
          if not (Driver.verified r) then
            Alcotest.failf "commons fuzz mismatch under %s:\n%s"
              (Options.strategy_name strategy) src
        | exception e ->
          Alcotest.failf "commons fuzz exception (%s) under %s:\n%s"
            (Printexc.to_string e)
            (Options.strategy_name strategy) src)
      strategies
  done

let suite =
  [
    Alcotest.test_case "common parse/roundtrip/symtab" `Quick c_roundtrip;
    Alcotest.test_case "common end to end" `Quick c_end_to_end;
    Alcotest.test_case "common inherits decomposition" `Quick c_inherited_decomposition;
    Alcotest.test_case "common scalar state" `Quick c_scalar_common_state;
    Alcotest.test_case "common alias + redistribute rejected" `Quick c_common_alias_rejected;
    Alcotest.test_case "fuzz: commons programs" `Slow c_fuzz;
    rejects "mismatched common layouts"
      "program p\n  common /c/ x\n  real x(8)\n  call f()\nend\nsubroutine f()\n  common /c/ x\n  real x(9)\nend\n";
    rejects "common member not declared"
      "program p\n  common /c/ nosuch\nend\n";
    rejects "formal in common"
      "program p\n  real z(4)\n  call f(z)\nend\nsubroutine f(z)\n  real z(4)\n  common /c/ z\nend\n";
    rejects "common not declared everywhere"
      "program p\n  common /c/ x\n  real x(8)\n  call f()\nend\nsubroutine f()\n  real y\n  y = 0.0\nend\n";
    rejects "member in two blocks"
      "program p\n  real x(4)\n  common /a/ x\n  common /b/ x\nend\n";
  ]
