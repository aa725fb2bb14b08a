(* Machine simulator tests: layouts, storage validity tracking, the
   effects-based scheduler (message ordering, broadcast, remap, deadlock
   detection), cost model, and the sequential reference interpreter. *)

open Fd_support
open Fd_frontend
open Fd_machine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let int_e n = Ast.Int_const n
let nloc = Fd_support.Loc.none

(* --- Layout ----------------------------------------------------------- *)

let l_block_owned () =
  let l = { Layout.bounds = [ (1, 100) ]; dist_dim = Some 0; dist = Layout.Block 25 } in
  let owned = Layout.owned l ~nprocs:4 in
  check "p0" true (Iset.equal owned.(0) (Iset.range 1 25));
  check "p3" true (Iset.equal owned.(3) (Iset.range 76 100));
  check_int "owner of 26" 1 (Layout.owner_of l ~nprocs:4 26);
  check_int "owner of 100" 3 (Layout.owner_of l ~nprocs:4 100)

let l_block_ragged () =
  (* N=10, P=4, b=3: blocks 3/3/3/1 *)
  let l = { Layout.bounds = [ (1, 10) ]; dist_dim = Some 0;
            dist = Layout.Block (Layout.block_size_for ~nprocs:4 (1, 10)) } in
  let owned = Layout.owned l ~nprocs:4 in
  check_int "p3 has one" 1 (Iset.count owned.(3));
  check_int "total covers" 10 (Array.fold_left (fun a s -> a + Iset.count s) 0 owned)

let l_cyclic_owned () =
  let l = { Layout.bounds = [ (1, 10) ]; dist_dim = Some 0; dist = Layout.Cyclic } in
  let owned = Layout.owned l ~nprocs:3 in
  check "p0 owns 1,4,7,10" true (Iset.equal owned.(0) (Iset.of_list [ 1; 4; 7; 10 ]));
  check_int "owner of 5" 1 (Layout.owner_of l ~nprocs:3 5)

let l_block_cyclic () =
  let l = { Layout.bounds = [ (1, 12) ]; dist_dim = Some 0; dist = Layout.Block_cyclic 2 } in
  let owned = Layout.owned l ~nprocs:3 in
  check "p0 owns {1,2,7,8}" true (Iset.equal owned.(0) (Iset.of_list [ 1; 2; 7; 8 ]));
  check_int "owner of 9" 1 (Layout.owner_of l ~nprocs:3 9)

let l_partition_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"layouts partition the extent"
       QCheck2.Gen.(
         let* n = int_range 1 60 in
         let* p = int_range 1 8 in
         let* kind = int_range 0 2 in
         return (n, p, kind))
       (fun (n, p, kind) ->
         let dist =
           match kind with
           | 0 -> Layout.Block (Layout.block_size_for ~nprocs:p (1, n))
           | 1 -> Layout.Cyclic
           | _ -> Layout.Block_cyclic 2
         in
         let l = { Layout.bounds = [ (1, n) ]; dist_dim = Some 0; dist } in
         let owned = Layout.owned l ~nprocs:p in
         (* disjoint and covering, and owner_of agrees with owned *)
         let total = Array.fold_left (fun a s -> a + Iset.count s) 0 owned in
         total = n
         && List.for_all
              (fun x ->
                let o = Layout.owner_of l ~nprocs:p x in
                o >= 0 && o < p && Iset.mem x owned.(o))
              (List.init n (fun i -> i + 1))))

(* --- Storage ------------------------------------------------------------ *)

let st_validity () =
  let l = { Layout.bounds = [ (1, 10) ]; dist_dim = Some 0; dist = Layout.Block 3 } in
  let obj = Storage.alloc ~proc:1 ~nprocs:4 "x" Ast.Real l in
  Storage.mark_initial_validity obj;
  (* p1 owns 4..6 *)
  check "owned readable" true
    (match Storage.read ~strict:true obj [| 5 |] with _ -> true);
  check "non-owned raises" true
    (match Storage.read ~strict:true obj [| 1 |] with
    | _ -> false
    | exception Storage.Invalid_read _ -> true);
  (* receive validates *)
  Storage.receive obj [| 1 |] (Value.Vreal 7.0);
  check "received readable" true
    (Value.to_float (Storage.read ~strict:true obj [| 1 |]) = 7.0)

let st_bounds_check () =
  let l = Layout.replicated [ (1, 4); (1, 4) ] in
  let obj = Storage.alloc ~proc:0 ~nprocs:1 "a" Ast.Integer l in
  Storage.mark_initial_validity obj;
  check "oob raises" true
    (match Storage.read ~strict:false obj [| 5; 1 |] with
    | _ -> false
    | exception Diag.Compile_error _ -> true)

let st_set_layout_resets () =
  let l1 = { Layout.bounds = [ (1, 8) ]; dist_dim = Some 0; dist = Layout.Block 2 } in
  let obj = Storage.alloc ~proc:0 ~nprocs:4 "x" Ast.Real l1 in
  Storage.mark_initial_validity obj;
  Storage.receive obj [| 5 |] (Value.Vreal 1.0);
  let l2 = { Layout.bounds = [ (1, 8) ]; dist_dim = Some 0; dist = Layout.Cyclic } in
  Storage.set_layout ~nprocs:4 obj l2;
  (* p0 now owns {1,5}: 5 valid again by ownership, old received 3 is not *)
  check "newly owned valid" true
    (match Storage.read ~strict:true obj [| 5 |] with _ -> true);
  check "stale receive invalidated" true
    (match Storage.read ~strict:true obj [| 3 |] with
    | _ -> false
    | exception Storage.Invalid_read _ -> true)

(* --- Scheduler ------------------------------------------------------------- *)

(* tiny node programs built by hand *)
let myp = Ast.Var "my$p"

let node_prog ?(nprocs = 2) ~arrays body =
  { Node.n_main = "m"; n_nprocs = nprocs;
    n_common_arrays = []; n_common_scalars = [];
    n_procs =
      [ { Node.np_name = "m"; np_formals = []; np_arrays = arrays;
          np_scalars = []; np_body = Node.N_assign (myp, Ast.Funcall ("myproc", [])) :: body } ] }

let run prog nprocs =
  Scheduler.run (Config.ipsc860 ~nprocs ()) prog

let sched_pingpong () =
  (* p0 sends x(1:4) to p1; p1 receives *)
  let l = { Layout.bounds = [ (1, 8) ]; dist_dim = Some 0; dist = Layout.Block 4 } in
  let arrays = [ { Node.ad_name = "x"; ad_elt = Ast.Real; ad_layout = l } ] in
  let body =
    [ Node.N_if
        { cond = Ast.Bin (Ast.Eq, myp, int_e 0);
          then_ =
            [ Node.N_do
                { var = "i"; lo = int_e 1; hi = int_e 4; step = None;
                  body = [ Node.N_assign (Ast.Ref ("x", [ Ast.Var "i" ]),
                                          Ast.Funcall ("float", [ Ast.Var "i" ])) ] };
              Node.N_send { dest = int_e 1;
                            parts = [ ("x", [ (int_e 1, int_e 4, int_e 1) ]) ];
                            tag = 1; loc = nloc } ];
          else_ = [ Node.N_recv { src = int_e 0; tag = 1; loc = nloc } ] ; loc = nloc } ]
  in
  let stats, frames = run (node_prog ~arrays body) 2 in
  check_int "one message" 1 stats.Stats.messages;
  check_int "32 bytes" 32 stats.Stats.message_bytes;
  (* p1 now holds valid copies *)
  (match Hashtbl.find frames.(1) "x" with
  | Interp.Barray obj ->
    check "value arrived" true
      (Value.to_float (Storage.read ~strict:true obj [| 3 |]) = 3.0)
  | _ -> Alcotest.fail "x missing");
  check "receiver waited" true (Stats.elapsed stats > 0.0)

let sched_recv_before_send () =
  (* p1 posts its receive before p0 ever sends: scheduler must park and
     resume it *)
  let l = { Layout.bounds = [ (1, 4) ]; dist_dim = Some 0; dist = Layout.Block 2 } in
  let arrays = [ { Node.ad_name = "x"; ad_elt = Ast.Real; ad_layout = l } ] in
  let body =
    [ Node.N_if
        { cond = Ast.Bin (Ast.Eq, myp, int_e 1);
          then_ = [ Node.N_recv { src = int_e 0; tag = 9; loc = nloc } ];
          else_ = [] ; loc = nloc };
      Node.N_if
        { cond = Ast.Bin (Ast.Eq, myp, int_e 0);
          then_ =
            [ Node.N_assign (Ast.Ref ("x", [ int_e 1 ]), Ast.Real_const 5.0);
              Node.N_send { dest = int_e 1;
                            parts = [ ("x", [ (int_e 1, int_e 1, int_e 1) ]) ];
                            tag = 9; loc = nloc } ];
          else_ = [] ; loc = nloc } ]
  in
  let stats, _ = run (node_prog ~arrays body) 2 in
  check_int "delivered" 1 stats.Stats.messages

let sched_deadlock () =
  let body = [ Node.N_recv { src = int_e 1; tag = 3; loc = nloc } ] in
  let l = Layout.replicated [ (1, 2) ] in
  let arrays = [ { Node.ad_name = "x"; ad_elt = Ast.Real; ad_layout = l } ] in
  check "deadlock detected" true
    (match run (node_prog ~arrays body) 2 with
    | _ -> false
    | exception Scheduler.Sim_error (Scheduler.Deadlock _) -> true)

let sched_bcast () =
  let l = { Layout.bounds = [ (1, 8) ]; dist_dim = Some 0; dist = Layout.Block 2 } in
  let arrays = [ { Node.ad_name = "x"; ad_elt = Ast.Real; ad_layout = l } ] in
  let body =
    [ Node.N_if
        { cond = Ast.Bin (Ast.Eq, myp, int_e 0);
          then_ = [ Node.N_assign (Ast.Ref ("x", [ int_e 2 ]), Ast.Real_const 9.0) ];
          else_ = [] ; loc = nloc };
      Node.N_bcast
        { root = int_e 0; payload = Node.P_section ("x", [ (int_e 2, int_e 2, int_e 1) ]);
          site = 1; loc = nloc } ]
  in
  let stats, frames = run (node_prog ~nprocs:4 ~arrays body) 4 in
  check_int "one broadcast" 1 stats.Stats.bcasts;
  for p = 1 to 3 do
    match Hashtbl.find frames.(p) "x" with
    | Interp.Barray obj ->
      check "broadcast value" true
        (Value.to_float (Storage.read ~strict:true obj [| 2 |]) = 9.0)
    | _ -> Alcotest.fail "x missing"
  done

let sched_collective_site_mismatch () =
  (* processors disagree on which collective they reach -> deadlock *)
  let l = Layout.replicated [ (1, 2) ] in
  let arrays = [ { Node.ad_name = "x"; ad_elt = Ast.Real; ad_layout = l } ] in
  let body =
    [ Node.N_if
        { cond = Ast.Bin (Ast.Eq, myp, int_e 0);
          then_ = [ Node.N_bcast { root = int_e 0;
                                   payload = Node.P_scalar "s"; site = 1; loc = nloc } ];
          else_ = [ Node.N_bcast { root = int_e 0;
                                   payload = Node.P_scalar "s"; site = 2; loc = nloc } ] ; loc = nloc } ]
  in
  check "mismatched sites deadlock" true
    (match run (node_prog ~arrays body) 2 with
    | _ -> false
    | exception Scheduler.Sim_error (Scheduler.Deadlock _) -> true)

let sched_remap_moves_data () =
  let block = { Layout.bounds = [ (1, 8) ]; dist_dim = Some 0; dist = Layout.Block 2 } in
  let cyc = { Layout.bounds = [ (1, 8) ]; dist_dim = Some 0; dist = Layout.Cyclic } in
  let arrays = [ { Node.ad_name = "x"; ad_elt = Ast.Real; ad_layout = block } ] in
  let body =
    [ (* every processor writes its own block: x(i) = i *)
      Node.N_do
        { var = "i";
          lo = Ast.Bin (Ast.Add, Ast.Bin (Ast.Mul, int_e 2, myp), int_e 1);
          hi = Ast.Bin (Ast.Add, Ast.Bin (Ast.Mul, int_e 2, myp), int_e 2);
          step = None;
          body = [ Node.N_assign (Ast.Ref ("x", [ Ast.Var "i" ]),
                                  Ast.Funcall ("float", [ Ast.Var "i" ])) ] };
      Node.N_remap { array = "x"; new_layout = cyc; move = true; site = 5; loc = nloc };
      (* after the remap every proc owns {p+1, p+5}; read them *)
      Node.N_assign (Ast.Var "v",
                     Ast.Ref ("x", [ Ast.Bin (Ast.Add, myp, int_e 1) ])) ]
  in
  let stats, frames = run (node_prog ~nprocs:4 ~arrays body) 4 in
  check_int "one physical remap" 1 stats.Stats.remaps;
  check "bytes moved" true (stats.Stats.remap_bytes > 0);
  (* check authoritative gather *)
  match Gather.gather_array ~nprocs:4 frames "x" with
  | Some g ->
    for i = 1 to 8 do
      check "gathered value" true
        (Value.to_float (Storage.get_raw g (Storage.flat_index g [| i |])) = float_of_int i)
    done
  | None -> Alcotest.fail "gather failed"

let sched_mark_only_remap_moves_nothing () =
  let block = { Layout.bounds = [ (1, 8) ]; dist_dim = Some 0; dist = Layout.Block 2 } in
  let cyc = { Layout.bounds = [ (1, 8) ]; dist_dim = Some 0; dist = Layout.Cyclic } in
  let arrays = [ { Node.ad_name = "x"; ad_elt = Ast.Real; ad_layout = block } ] in
  let body = [ Node.N_remap { array = "x"; new_layout = cyc; move = false; site = 1; loc = nloc } ] in
  let stats, _ = run (node_prog ~nprocs:4 ~arrays body) 4 in
  check_int "mark only" 1 stats.Stats.remap_marks;
  check_int "no bytes" 0 stats.Stats.remap_bytes

let sched_determinism () =
  let src = Fd_workloads.Stencil.jacobi1d ~n:64 ~t:3 () in
  let r1 = Fd_core.Driver.run_source src in
  let r2 = Fd_core.Driver.run_source src in
  check "same elapsed" true
    (Stats.elapsed r1.Fd_core.Driver.stats = Stats.elapsed r2.Fd_core.Driver.stats);
  check_int "same messages" r1.Fd_core.Driver.stats.Stats.messages
    r2.Fd_core.Driver.stats.Stats.messages

(* Simulating one compiled program twice gives the same stats JSON
   (counters, clocks, outputs, the recorded event log), the same trace
   events in the same order, and the same normalized skeleton: no
   simulator state leaks from one run into the next. *)
let sequential_rerun_canary () =
  let examples_dir =
    if Sys.file_exists "../examples" then "../examples" else "examples"
  in
  let src =
    In_channel.with_open_bin (Filename.concat examples_dir "jacobi2d.fd")
      In_channel.input_all
  in
  let opts = { Fd_core.Options.default with Fd_core.Options.nprocs = 8 } in
  let prog = (Fd_core.Driver.compile_source ~opts src).Fd_core.Codegen.program in
  let sim () =
    let tr = Fd_trace.Trace.create () in
    let config = Config.make ~nprocs:8 ~trace:tr () in
    let r = Scheduler.run_partial config prog in
    ( Json.to_string (Stats.to_json r.Scheduler.p_stats),
      Fd_trace.Trace.to_list tr,
      Fd_trace.Export.skeleton tr,
      r.Scheduler.p_frames <> None )
  in
  let stats_a, events_a, skel_a, done_a = sim () in
  let stats_b, events_b, skel_b, done_b = sim () in
  Alcotest.(check string) "stats json" stats_a stats_b;
  check "trace events bit-identical" true (events_a = events_b);
  Alcotest.(check (list string)) "skeleton" skel_a skel_b;
  check "both completed" true (done_a && done_b)

(* --- Cost model ------------------------------------------------------------ *)

let cost_message () =
  let c = Config.ipsc860 ~nprocs:4 () in
  check "alpha dominates small messages" true
    (Config.message_cost c 8 < 2.0 *. c.Config.alpha);
  check "beta dominates large messages" true
    (Config.message_cost c 1_000_000 > 100.0 *. c.Config.alpha)

let cost_bcast_tree () =
  (* ceil (log2 P) stages of one message each *)
  let stages nprocs k =
    let c = Config.ipsc860 ~nprocs () in
    check (Printf.sprintf "P=%d takes %d stages" nprocs k) true
      (Config.bcast_cost c 1024 = float_of_int k *. Config.message_cost c 1024)
  in
  stages 1 0;
  stages 2 1;
  stages 5 3;
  stages 8 3;
  stages 9 4

(* --- Sequential interpreter -------------------------------------------------- *)

let seq_basic () =
  let cp =
    Sema.check_source
      "program p\n  real x(4)\n  integer i\n  do i = 1, 4\n    x(i) = float(i) * 2.0\n  enddo\n  print *, x(4)\nend\n"
  in
  let r = Seq_interp.run cp in
  check "output" true (r.Seq_interp.outputs = [ "8" ]);
  let x = List.assoc "x" r.Seq_interp.arrays in
  check "x(2)" true (Value.to_float (Storage.read ~strict:false x [| 2 |]) = 4.0)

let seq_call_by_reference () =
  let cp =
    Sema.check_source
      "program p\n  real x(2)\n  integer n\n  n = 1\n  call f(x, n)\n  print *, x(1), n\nend\nsubroutine f(y, m)\n  real y(2)\n  integer m\n  y(1) = 42.0\n  m = 7\nend\n"
  in
  let r = Seq_interp.run cp in
  check "by-reference effects" true (r.Seq_interp.outputs = [ "42 7" ])

let seq_expression_actual_by_value () =
  let cp =
    Sema.check_source
      "program p\n  integer n\n  n = 1\n  call f(n + 0)\n  print *, n\nend\nsubroutine f(m)\n  integer m\n  m = 9\nend\n"
  in
  let r = Seq_interp.run cp in
  check "expression actual copies" true (r.Seq_interp.outputs = [ "1" ])

let suite =
  [
    Alcotest.test_case "layout block" `Quick l_block_owned;
    Alcotest.test_case "layout ragged block" `Quick l_block_ragged;
    Alcotest.test_case "layout cyclic" `Quick l_cyclic_owned;
    Alcotest.test_case "layout block-cyclic" `Quick l_block_cyclic;
    l_partition_property;
    Alcotest.test_case "storage validity" `Quick st_validity;
    Alcotest.test_case "storage bounds check" `Quick st_bounds_check;
    Alcotest.test_case "storage layout reset" `Quick st_set_layout_resets;
    Alcotest.test_case "scheduler ping-pong" `Quick sched_pingpong;
    Alcotest.test_case "scheduler recv-before-send" `Quick sched_recv_before_send;
    Alcotest.test_case "scheduler deadlock" `Quick sched_deadlock;
    Alcotest.test_case "scheduler broadcast" `Quick sched_bcast;
    Alcotest.test_case "scheduler site mismatch" `Quick sched_collective_site_mismatch;
    Alcotest.test_case "scheduler remap moves data" `Quick sched_remap_moves_data;
    Alcotest.test_case "scheduler mark-only remap" `Quick sched_mark_only_remap_moves_nothing;
    Alcotest.test_case "scheduler determinism" `Quick sched_determinism;
    Alcotest.test_case "sequential rerun canary" `Quick sequential_rerun_canary;
    Alcotest.test_case "cost model messages" `Quick cost_message;
    Alcotest.test_case "cost model tree broadcast" `Quick cost_bcast_tree;
    Alcotest.test_case "seq interp basics" `Quick seq_basic;
    Alcotest.test_case "seq interp by-reference" `Quick seq_call_by_reference;
    Alcotest.test_case "seq interp by-value expr" `Quick seq_expression_actual_by_value;
  ]
