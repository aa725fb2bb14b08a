(* Second battery of unit tests: values, diagnostics, list utilities,
   interpreter intrinsics, message ordering, gather mismatch detection,
   dynamic-decomposition passes in isolation, exports invariants, and
   cloning limits. *)

open Fd_support
open Fd_frontend
open Fd_core
open Fd_machine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- Value ---------------------------------------------------------------- *)

let v_coercions () =
  check "int+real widens" true (Value.add (Value.Vint 2) (Value.Vreal 0.5) = Value.Vreal 2.5);
  check "int/int truncates" true (Value.div (Value.Vint 7) (Value.Vint 2) = Value.Vint 3);
  check "int pow" true (Value.pow (Value.Vint 2) (Value.Vint 10) = Value.Vint 1024);
  check "neg int pow is 1 / x ** |n|" true
    (Value.pow (Value.Vint 2) (Value.Vint (-1)) = Value.Vint 0
    && Value.pow (Value.Vint (-1)) (Value.Vint (-3)) = Value.Vint (-1));
  check "zero to a negative power raises" true
    (match Value.pow (Value.Vint 0) (Value.Vint (-2)) with
    | _ -> false
    | exception Diag.Compile_error _ -> true);
  check "compare across kinds" true (Value.compare_num (Value.Vint 1) (Value.Vreal 1.5) < 0);
  check "div by zero raises" true
    (match Value.div (Value.Vint 1) (Value.Vint 0) with
    | _ -> false
    | exception Diag.Compile_error _ -> true)

let v_logical_misuse () =
  check "bool as number raises" true
    (match Value.to_float (Value.Vbool true) with
    | _ -> false
    | exception Diag.Compile_error _ -> true)

(* --- Diag ------------------------------------------------------------------ *)

let d_warnings_drain () =
  let sink = Diag.sink () in
  Diag.warn_to sink "first %d" 1;
  Diag.warn_to sink "second";
  let ws = Diag.take_warnings_of sink in
  check_int "two warnings" 2 (List.length ws);
  check "drained" true (Diag.take_warnings_of sink = [])

let d_error_has_location () =
  let loc = Loc.make ~file:"f.fd" ~line:3 ~col:7 in
  match Diag.error ~loc "boom %s" "x" with
  | _ -> Alcotest.fail "should raise"
  | exception Diag.Compile_error d ->
    check_str "message" "f.fd:3:7: error: boom x" (Diag.to_string d)

(* --- Listx ------------------------------------------------------------------ *)

let lx_basics () =
  check "dedup keeps order" true (Listx.dedup ~equal:( = ) [ 1; 2; 1; 3; 2 ] = [ 1; 2; 3 ]);
  check "group_by stable" true
    (Listx.group_by ~key:(fun x -> x mod 2) ~equal_key:( = ) [ 1; 2; 3; 4 ]
    = [ (1, [ 1; 3 ]); (0, [ 2; 4 ]) ]);
  check "take" true (Listx.take 2 [ 1; 2; 3 ] = [ 1; 2 ]);
  check "take past end" true (Listx.take 9 [ 1 ] = [ 1 ]);
  check "init_opt" true (Listx.init_opt 4 (fun i -> if i mod 2 = 0 then Some i else None) = [ 0; 2 ])

(* --- Interpreter intrinsics through whole programs ---------------------------- *)

let run_outputs src =
  let r = Driver.run_source ~opts:{ Options.default with Options.nprocs = 2 } src in
  assert (Driver.verified r);
  Stats.outputs r.Driver.stats

let i_intrinsics () =
  let out =
    run_outputs
      "program p\n  real x\n  integer k\n  x = max(1.0, 2.0, 0.5) + min(4, 7) + abs(-3.0) + sqrt(16.0)\n  k = mod(-7, 3) + sign(2, -1)\n  print *, x, k\nend\n"
  in
  (* 2 + 4 + 3 + 4 = 13; mod(-7,3) = -1 (Fortran), sign(2,-1) = -2 *)
  check "intrinsic results" true (out = [ "13 -3" ])

let i_integer_division () =
  let out =
    run_outputs "program p\n  integer k\n  k = 7 / 2 + 10 / 3\n  print *, k\nend\n"
  in
  check "trunc division" true (out = [ "6" ])

let i_short_circuit () =
  (* division by zero on the right of .and. must not evaluate *)
  let out =
    run_outputs
      "program p\n  integer k\n  logical b\n  k = 0\n  b = k > 0 .and. 1 / k > 0\n  if (.not. b) then\n    k = 5\n  endif\n  print *, k\nend\n"
  in
  check "short circuit" true (out = [ "5" ])

(* --- Scheduler: channel FIFO ordering ------------------------------------------ *)

let sched_fifo () =
  let int_e n = Ast.Int_const n in
  let nloc = Fd_support.Loc.none in
  let myp = Ast.Var "my$p" in
  let l = { Layout.bounds = [ (1, 4) ]; dist_dim = Some 0; dist = Layout.Block 2 } in
  let arrays = [ { Node.ad_name = "x"; ad_elt = Ast.Real; ad_layout = l } ] in
  (* p0 sends x(1) then x(2) on the same tag; p1 receives twice: FIFO *)
  let body =
    [ Node.N_if
        { cond = Ast.Bin (Ast.Eq, myp, int_e 0);
          then_ =
            [ Node.N_assign (Ast.Ref ("x", [ int_e 1 ]), Ast.Real_const 1.0);
              Node.N_assign (Ast.Ref ("x", [ int_e 2 ]), Ast.Real_const 2.0);
              Node.N_send { dest = int_e 1; parts = [ ("x", [ (int_e 1, int_e 1, int_e 1) ]) ]; tag = 4; loc = nloc };
              Node.N_send { dest = int_e 1; parts = [ ("x", [ (int_e 2, int_e 2, int_e 1) ]) ]; tag = 4; loc = nloc } ];
          else_ =
            [ Node.N_recv { src = int_e 0; tag = 4; loc = nloc };
              Node.N_recv { src = int_e 0; tag = 4; loc = nloc } ] ; loc = nloc } ]
  in
  let prog =
    { Node.n_main = "m"; n_nprocs = 2;
      n_common_arrays = []; n_common_scalars = [];
      n_procs =
        [ { Node.np_name = "m"; np_formals = []; np_arrays = arrays; np_scalars = [];
            np_body = Node.N_assign (myp, Ast.Funcall ("myproc", [])) :: body } ] }
  in
  let stats, frames = Scheduler.run (Config.ipsc860 ~nprocs:2 ()) prog in
  check_int "two messages" 2 stats.Stats.messages;
  match Hashtbl.find frames.(1) "x" with
  | Interp.Barray obj ->
    check "both arrived" true
      (Value.to_float (Storage.read ~strict:true obj [| 1 |]) = 1.0
      && Value.to_float (Storage.read ~strict:true obj [| 2 |]) = 2.0)
  | _ -> Alcotest.fail "x missing"

(* --- Gather detects divergence -------------------------------------------------- *)

let gather_detects_mismatch () =
  let src = Fd_workloads.Figures.fig1 ~n:32 ~shift:2 () in
  let cp = Driver.check_source src in
  let compiled = Driver.compile cp in
  let config = Config.ipsc860 ~nprocs:4 () in
  let _, frames = Scheduler.run config compiled.Codegen.program in
  let seq = Seq_interp.run ~config cp in
  (* corrupt one owned element on its owner and expect a mismatch *)
  (match Hashtbl.find frames.(2) "x" with
  | Interp.Barray obj -> Storage.write obj [| 20 |] (Value.Vreal 9999.0)
  | _ -> Alcotest.fail "x missing");
  let mismatches = Gather.compare_results ~nprocs:4 seq frames in
  check_int "exactly one mismatch" 1 (List.length mismatches);
  match mismatches with
  | [ m ] ->
    check_str "array" "x" m.Gather.m_array;
    check "index" true (m.Gather.m_index = [| 20 |])
  | _ -> ()

(* --- Dynamic decomposition passes in isolation ----------------------------------- *)

let no_calls _callee _args = Dynamic_decomp.SS.empty

let sids = Dynamic_decomp.new_sids ()

let remap name kind : Ast.stmt =
  Dynamic_decomp.remap_stmt sids
    { Dynamic_decomp.rm_array = name;
      rm_decomp = Decomp.of_kinds [ kind ];
      rm_move = true }

let use_stmt name : Ast.stmt =
  { Ast.sid = 999_000 + Hashtbl.hash name mod 1000;
    loc = Loc.none;
    kind = Ast.Assign (Ast.Ref (name, [ Ast.Int_const 1 ]), Ast.Real_const 0.0) }

let dd_dead_elim_unit () =
  (* remap; remap (no use between): first is dead *)
  let body = [ remap "x" Ast.Block; remap "x" Ast.Cyclic; use_stmt "x" ] in
  let body', removed = Dynamic_decomp.dead_remap_elim ~call_touches:no_calls ~live_out:Dynamic_decomp.SS.empty body in
  check_int "one removed" 1 removed;
  check_int "two left" 2 (List.length body');
  (* a trailing remap is dead in the main program, live in a subroutine
     whose callers see the array *)
  let body = [ use_stmt "x"; remap "x" Ast.Block ] in
  let _, removed = Dynamic_decomp.dead_remap_elim ~call_touches:no_calls ~live_out:Dynamic_decomp.SS.empty body in
  check_int "trailing remap dead at program exit" 1 removed;
  let live_out = Dynamic_decomp.SS.singleton "x" in
  let _, removed = Dynamic_decomp.dead_remap_elim ~call_touches:no_calls ~live_out body in
  check_int "trailing remap of an interface array kept" 0 removed

let dd_redundant_unit () =
  let initial = Dynamic_decomp.DM.singleton "x" (Decomp.of_kinds [ Ast.Block ]) in
  let body = [ remap "x" Ast.Block; use_stmt "x" ] in
  let body', removed = Dynamic_decomp.redundant_remap_elim ~initial body in
  check_int "redundant removed" 1 removed;
  check_int "one left" 1 (List.length body')

let dd_liveness_respects_branches () =
  (* the remap's target is used in one branch only: still live *)
  let branch_use =
    { Ast.sid = 999_900; loc = Loc.none;
      kind =
        Ast.If
          { cond = Ast.Logical_const true;
            then_ = [ use_stmt "x" ];
            else_ = [] } }
  in
  let body = [ remap "x" Ast.Cyclic; branch_use ] in
  let _, removed = Dynamic_decomp.dead_remap_elim ~call_touches:no_calls ~live_out:Dynamic_decomp.SS.empty body in
  check_int "kept (used in a branch)" 0 removed

(* Every compile numbers its remap$ pseudo-statements from the same
   base, so compiling one program twice in a process issues the same
   ids: all above the parsed statement ids. *)
let dd_pseudo_sids_per_compile () =
  let examples_dir =
    if Sys.file_exists "../examples" then "../examples" else "examples"
  in
  let src =
    In_channel.with_open_bin (Filename.concat examples_dir "adi_dynamic.fd")
      In_channel.input_all
  in
  let last_sid () =
    let compiled = Driver.compile_source src in
    Dynamic_decomp.last_sid compiled.Codegen.state.Codegen.pseudo_sids
  in
  let first = last_sid () in
  check "remaps were inserted" true (first > Dynamic_decomp.pseudo_sid_base);
  check_int "same ids on a second compile" first (last_sid ())

(* --- Exports invariants over dgefa ------------------------------------------------- *)

let exports_dgefa () =
  let compiled = Driver.compile_source (Fd_workloads.Dgefa.source ~n:8 ()) in
  let ex name = Codegen.export_of compiled.Codegen.state name in
  (match (ex "idamax").Exports.ex_constraint with
  | Exports.C_owner { co_array = "a"; co_dim = 1; _ } -> ()
  | _ -> Alcotest.fail "idamax should be owner-constrained on a dim 2");
  check "idamax broadcasts l" true
    (Exports.SS.mem "l" (ex "idamax").Exports.ex_mod_scalars);
  check "daxpy exports the pivot-column broadcast" true
    (List.exists
       (function Exports.P_invariant { pi_array = "a"; _ } -> true | _ -> false)
       (ex "daxpy").Exports.ex_comms);
  (match (ex "swaprow").Exports.ex_constraint with
  | Exports.C_none -> ()
  | _ -> Alcotest.fail "swaprow partitions internally");
  check "dgefa exports nothing upward" true ((ex "dgefa").Exports.ex_comms = [])

let exports_fig15 () =
  let compiled = Driver.compile_source (Fd_workloads.Figures.fig15 ~n:32 ~t:2 ()) in
  let ex name = Codegen.export_of compiled.Codegen.state name in
  check "f1 kills x" true (Exports.SS.mem "x" (ex "f1").Exports.ex_kill);
  check "f1 DecompBefore cyclic" true
    (List.exists
       (fun (v, d) -> v = "x" && Decomp.to_string d = "(cyclic)")
       (ex "f1").Exports.ex_before);
  check "f1 DecompAfter restores block" true
    (List.exists
       (fun (v, d) -> v = "x" && Decomp.to_string d = "(block)")
       (ex "f1").Exports.ex_after);
  check "f2 uses inherited decomposition" true
    (Exports.SS.mem "y" (ex "f2").Exports.ex_use);
  check "f2 value-kills nothing (it reads y)" true
    (not (Exports.SS.mem "y" (ex "f2").Exports.ex_value_kill))

(* --- Cloning limit ------------------------------------------------------------------ *)

let cloning_limit () =
  (* four call sites with four distinct distributions; limit 2 disables *)
  let src =
    "program p\n  real a(8), b(8), c(8), d(8)\n  integer i\n  distribute a(block)\n  distribute b(cyclic)\n  distribute c(block_cyclic(2))\n  distribute d(:)\n  call f(a)\n  call f(b)\n  call f(c)\n  call f(d)\nend\nsubroutine f(z)\n  real z(8)\n  integer i\n  do i = 1, 8\n    z(i) = 0.0\n  enddo\nend\n"
  in
  let sink = Diag.sink () in
  let r =
    Cloning.apply ~sink
      { Options.default with Options.clone_limit = 2 }
      (Sema.check_source src)
  in
  check_int "cloning abandoned" 0 r.Cloning.clones_made;
  check "warned" true (Diag.take_warnings_of sink <> []);
  let r' = Cloning.apply ~sink:(Diag.sink ()) Options.default (Sema.check_source src) in
  check_int "full cloning makes 3" 3 r'.Cloning.clones_made

(* --- Driver speedup accessor ---------------------------------------------------------- *)

let driver_speedup () =
  let r = Driver.run_source (Fd_workloads.Figures.fig1 ~n:400 ()) in
  check "speedup positive" true (Driver.speedup r > 0.0)

(* --- Trace recording ------------------------------------------------------------------- *)

let trace_recording () =
  let trace = Fd_trace.Trace.create () in
  let machine = Config.make ~nprocs:4 ~trace () in
  let r = Driver.run_source ~machine (Fd_workloads.Figures.fig1 ~n:100 ()) in
  check "trace nonempty" true (Fd_trace.Trace.length trace > 0);
  check_int "nothing dropped" 0 (Fd_trace.Trace.dropped trace);
  check_int "one event per message" r.Driver.stats.Stats.messages
    (Fd_trace.Trace.count trace ~kind:Fd_trace.Trace.Send);
  (* timeline is per-event plausible: all timestamps nonnegative *)
  check "timestamps nonnegative" true
    (Fd_trace.Trace.fold trace true (fun ok e -> ok && e.Fd_trace.Trace.at >= 0.0))

let suite =
  [
    Alcotest.test_case "value coercions" `Quick v_coercions;
    Alcotest.test_case "value logical misuse" `Quick v_logical_misuse;
    Alcotest.test_case "diag warnings drain" `Quick d_warnings_drain;
    Alcotest.test_case "diag error location" `Quick d_error_has_location;
    Alcotest.test_case "listx basics" `Quick lx_basics;
    Alcotest.test_case "interp intrinsics" `Quick i_intrinsics;
    Alcotest.test_case "interp integer division" `Quick i_integer_division;
    Alcotest.test_case "interp short circuit" `Quick i_short_circuit;
    Alcotest.test_case "scheduler channel fifo" `Quick sched_fifo;
    Alcotest.test_case "gather detects mismatch" `Quick gather_detects_mismatch;
    Alcotest.test_case "dead remap elim (unit)" `Quick dd_dead_elim_unit;
    Alcotest.test_case "redundant remap elim (unit)" `Quick dd_redundant_unit;
    Alcotest.test_case "remap liveness across branches" `Quick dd_liveness_respects_branches;
    Alcotest.test_case "remap pseudo sids restart per compile" `Quick
      dd_pseudo_sids_per_compile;
    Alcotest.test_case "exports: dgefa invariants" `Quick exports_dgefa;
    Alcotest.test_case "exports: fig15 before/after" `Quick exports_fig15;
    Alcotest.test_case "cloning limit" `Quick cloning_limit;
    Alcotest.test_case "driver speedup" `Quick driver_speedup;
    Alcotest.test_case "trace recording" `Quick trace_recording;
  ]
