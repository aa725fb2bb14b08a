(* Fourth battery: communication emission details, broadcast expansion,
   layout arithmetic, message-count formulas across processor counts,
   and runtime-resolution corner cases. *)

open Fd_support
open Fd_frontend
open Fd_core
open Fd_machine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let int_e n = Ast.Int_const n

(* --- assemble_section --------------------------------------------------- *)

let comm_assemble () =
  let sec =
    Comm.assemble_section ~rank:3 ~dim:1
      (int_e 4, int_e 8, int_e 1)
      [ Comm.Od_point (Ast.Var "i"); Comm.Od_full (1, 10) ]
  in
  check_int "rank" 3 (List.length sec);
  (match List.nth sec 1 with
  | Ast.Int_const 4, Ast.Int_const 8, _ -> ()
  | _ -> Alcotest.fail "dist dim misplaced");
  match (List.nth sec 0, List.nth sec 2) with
  | (Ast.Var "i", Ast.Var "i", _), (Ast.Int_const 1, Ast.Int_const 10, _) -> ()
  | _ -> Alcotest.fail "other dims misplaced"

(* --- multi-part aggregation at the emission level -------------------------- *)

let comm_multi_merges () =
  let layout =
    { Layout.bounds = [ (1, 40) ]; dist_dim = Some 0; dist = Layout.Block 10 }
  in
  let need = Layout.partition layout ~nprocs:4 ~shift:(-1) (Triplet.range 1 40) in
  let single =
    Comm.emit_section_comm_multi ~nprocs:4 ~tag:1 ~layout ~dim:0 ~parts:[ ("a", need, []) ] ()
  in
  let multi =
    Comm.emit_section_comm_multi ~nprocs:4 ~tag:1 ~layout ~dim:0
      ~parts:[ ("a", need, []); ("b", need, []) ] ()
  in
  (* same number of statements: the second array rides along *)
  check_int "one send + one recv either way" (List.length single) (List.length multi);
  let count_parts = function
    | Node.N_if { then_ = [ Node.N_send { parts; _ } ]; _ } -> List.length parts
    | _ -> 0
  in
  check_int "merged parts" 2
    (List.fold_left (fun acc s -> max acc (count_parts s)) 0 multi)

(* --- broadcast expansion without collectives -------------------------------- *)

let bcast_expansion () =
  let src = Fd_workloads.Figures.fig1 ~n:64 ~shift:2 () in
  let opts = { Options.default with Options.use_collectives = false } in
  let compiled = Driver.compile_source ~opts src in
  let text = Fmt.str "%a" Node.pp_program compiled.Codegen.program in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check "no broadcast statements" false (contains text "broadcast x(");
  check "expanded to a send loop" true (contains text "do p$ = 0, 3");
  let r = Driver.run_source ~opts src in
  check "verified" true (Driver.verified r);
  check_int "no collectives used" 0 r.Driver.stats.Stats.bcasts

(* --- layout arithmetic -------------------------------------------------------- *)

let layout_block_size () =
  check_int "even" 25 (Layout.block_size_for ~nprocs:4 (1, 100));
  check_int "ragged rounds up" 26 (Layout.block_size_for ~nprocs:4 (1, 101));
  check_int "tiny" 1 (Layout.block_size_for ~nprocs:8 (1, 3))

let layout_owner_bounds () =
  let l = { Layout.bounds = [ (0, 99) ]; dist_dim = Some 0; dist = Layout.Block 25 } in
  (* zero-based lower bound *)
  check_int "owner of 0" 0 (Layout.owner_of l ~nprocs:4 0);
  check_int "owner of 99" 3 (Layout.owner_of l ~nprocs:4 99)

(* --- message-count formula across P --------------------------------------------- *)

let msgs_scale_with_p () =
  (* the shift kernel needs exactly P-1 boundary messages *)
  List.iter
    (fun p ->
      let opts = { Options.default with Options.nprocs = p } in
      let r = Driver.run_source ~opts (Fd_workloads.Figures.fig1 ~n:128 ~shift:1 ()) in
      check (Fmt.str "P=%d" p) true (Driver.verified r);
      check_int (Fmt.str "P-1 messages at P=%d" p) (p - 1)
        r.Driver.stats.Stats.messages)
    [ 2; 4; 8 ]

(* --- runtime-res corner: distributed read in an IF condition --------------------- *)

let runtime_res_if_condition () =
  let src =
    "program p\n  parameter (n = 16)\n  real x(16)\n  integer i\n  distribute x(block)\n  do i = 1, n\n    x(i) = float(i)\n  enddo\n  if (x(3) > 2.0) then\n    x(1) = 99.0\n  endif\n  print *, x(1)\nend\n"
  in
  List.iter
    (fun strategy ->
      let opts = { Options.default with Options.strategy } in
      let r = Driver.run_source ~opts src in
      check (Options.strategy_name strategy) true (Driver.verified r);
      check "took the branch" true (Stats.outputs r.Driver.stats = [ "99" ]))
    [ Options.Interproc; Options.Immediate; Options.Runtime_resolution ]

(* --- print of distributed elements from a callee ---------------------------------- *)

let print_in_callee () =
  let src =
    "program p\n  parameter (n = 16)\n  real x(16)\n  integer i\n  distribute x(block)\n  do i = 1, n\n    x(i) = float(i*2)\n  enddo\n  call report(x)\nend\nsubroutine report(x)\n  parameter (n = 16)\n  real x(16)\n  print *, x(1), x(n)\nend\n"
  in
  let r = Driver.run_source src in
  check "verified" true (Driver.verified r);
  check "prints owners' values" true (Stats.outputs r.Driver.stats = [ "2 32" ])

(* --- exports printing smoke --------------------------------------------------------- *)

let exports_pp_smoke () =
  let compiled = Driver.compile_source (Fd_workloads.Dgefa.source ~n:8 ()) in
  Hashtbl.iter
    (fun _ ex ->
      let s = Fmt.str "%a" Exports.pp ex in
      check "nonempty rendering" true (String.length s > 0))
    compiled.Codegen.state.Codegen.exports

(* --- iset shift/inter interplay (unit) ------------------------------------------------ *)

let iset_shift_inter () =
  let a = Iset.of_triplet (Triplet.make ~lo:2 ~hi:20 ~step:2) in
  let shifted = Iset.shift 1 a in
  check "shift preserves count" true (Iset.count shifted = Iset.count a);
  check "odd after shift" true (Iset.disjoint shifted a);
  check "round trip" true (Iset.equal (Iset.shift (-1) shifted) a)

let suite =
  [
    Alcotest.test_case "comm assemble_section" `Quick comm_assemble;
    Alcotest.test_case "comm multi-part merge" `Quick comm_multi_merges;
    Alcotest.test_case "broadcast expansion" `Quick bcast_expansion;
    Alcotest.test_case "layout block size" `Quick layout_block_size;
    Alcotest.test_case "layout zero-based bounds" `Quick layout_owner_bounds;
    Alcotest.test_case "messages scale with P" `Quick msgs_scale_with_p;
    Alcotest.test_case "runtime-res if condition" `Quick runtime_res_if_condition;
    Alcotest.test_case "print in callee" `Quick print_in_callee;
    Alcotest.test_case "exports pp smoke" `Quick exports_pp_smoke;
    Alcotest.test_case "iset shift interplay" `Quick iset_shift_inter;
  ]

(* --- negative-step loop over a distributed array ------------------------------------ *)

let negative_step_distributed () =
  let src =
    "program p\n  parameter (n = 32)\n  real x(32)\n  integer i\n  distribute x(block)\n  do i = n, 1, -1\n    x(i) = float(i)\n  enddo\n  print *, x(1), x(n)\nend\n"
  in
  List.iter
    (fun strategy ->
      let opts = { Options.default with Options.strategy } in
      let r = Driver.run_source ~opts src in
      check (Options.strategy_name strategy) true (Driver.verified r))
    [ Options.Interproc; Options.Immediate; Options.Runtime_resolution ]

(* --- strided store over a cyclic array ----------------------------------------------- *)

let strided_store_cyclic () =
  let src =
    "program p\n  parameter (n = 30)\n  real x(30)\n  integer i\n  distribute x(cyclic)\n  do i = 1, n\n    x(i) = 0.0\n  enddo\n  do i = 1, n, 3\n    x(i) = float(i)\n  enddo\n  print *, x(1), x(4)\nend\n"
  in
  let r = Driver.run_source src in
  check "verified" true (Driver.verified r)

let suite =
  suite
  @ [
      Alcotest.test_case "negative-step distributed loop" `Quick negative_step_distributed;
      Alcotest.test_case "strided store over cyclic" `Quick strided_store_cyclic;
    ]

(* --- early RETURN restores inherited decomposition (Immediate) ------------------------ *)

let early_return_restores () =
  let src =
    "program p\n  parameter (n = 16)\n  real x(16)\n  integer i, k\n  distribute x(block)\n  do i = 1, n\n    x(i) = float(i)\n  enddo\n  k = 1\n  call f(x, k)\n  do i = 1, n\n    x(i) = x(i) + 1.0\n  enddo\n  print *, x(1), x(n)\nend\nsubroutine f(x, k)\n  parameter (n = 16)\n  real x(16)\n  integer i, k\n  distribute x(cyclic)\n  do i = 1, n\n    x(i) = x(i) * 2.0\n  enddo\n  if (k > 0) then\n    return\n  endif\n  do i = 1, n\n    x(i) = 0.0\n  enddo\nend\n"
  in
  List.iter
    (fun strategy ->
      let opts = { Options.default with Options.strategy } in
      let r = Driver.run_source ~opts src in
      check (Options.strategy_name strategy) true (Driver.verified r))
    [ Options.Interproc; Options.Immediate ]

let suite =
  suite
  @ [ Alcotest.test_case "early return restores decomposition" `Quick
        early_return_restores ]
