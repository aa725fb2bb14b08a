(* Failure diagnostics and run-to-run determinism: wait-for graphs at a
   deadlock, strict-validity naming, the trace events a deadlocked run
   leaves in the ring, identical Stats across reruns, and the
   differential oracle against sequential execution over the workloads. *)

open Fd_frontend
open Fd_core
open Fd_machine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains s sub =
  try
    ignore (Str.search_forward (Str.regexp_string sub) s 0);
    true
  with Not_found -> false

let int_e n = Ast.Int_const n
let nloc = Fd_support.Loc.none
let myp = Ast.Var "my$p"

let node_prog ?(nprocs = 2) ~arrays body =
  { Node.n_main = "m"; n_nprocs = nprocs;
    n_common_arrays = []; n_common_scalars = [];
    n_procs =
      [ { Node.np_name = "m"; np_formals = []; np_arrays = arrays;
          np_scalars = [];
          np_body = Node.N_assign (myp, Ast.Funcall ("myproc", [])) :: body } ] }

let run_with ?trace prog nprocs = Scheduler.run (Config.make ~nprocs ?trace ()) prog

(* --- Deadlock diagnostics ---------------------------------------------- *)

let deadlock_cycle_extracted () =
  (* p0 waits on p1 and p1 waits on p0: a 2-cycle *)
  let l = Layout.replicated [ (1, 2) ] in
  let arrays = [ { Node.ad_name = "x"; ad_elt = Ast.Real; ad_layout = l } ] in
  let body =
    [ Node.N_if
        { cond = Ast.Bin (Ast.Eq, myp, int_e 0);
          then_ = [ Node.N_recv { src = int_e 1; tag = 3; loc = nloc } ];
          else_ = [ Node.N_recv { src = int_e 0; tag = 3; loc = nloc } ] ; loc = nloc } ]
  in
  match run_with (node_prog ~arrays body) 2 with
  | _ -> Alcotest.fail "expected deadlock"
  | exception Scheduler.Sim_error (Scheduler.Deadlock wf) ->
    check_int "both blocked" 2 (List.length wf.Scheduler.waiting);
    check "cycle found" true
      (List.sort compare wf.Scheduler.cycle = [ 0; 1 ]);
    let s = Scheduler.error_to_string (Scheduler.Deadlock wf) in
    check "cycle rendered" true (contains s "wait cycle")

let deadlock_names_collective_sites () =
  (* mismatched collective sites: both sites must be named in the error *)
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
  match run_with (node_prog ~arrays body) 2 with
  | _ -> Alcotest.fail "expected deadlock"
  | exception Scheduler.Sim_error (Scheduler.Deadlock wf) ->
    let sites =
      List.filter_map
        (fun w ->
          match w.Scheduler.w_on with
          | Scheduler.On_collective { site; _ } -> Some site
          | _ -> None)
        wf.Scheduler.waiting
    in
    check "both sites present" true (List.sort compare sites = [ 1; 2 ]);
    let s = Scheduler.error_to_string (Scheduler.Deadlock wf) in
    check "site 1 named" true (contains s "site 1");
    check "site 2 named" true (contains s "site 2");
    check "label named" true (contains s "broadcast s")

let deadlock_mixed_recv_and_collective () =
  (* one processor at a collective while the other is stuck on a
     receive must be a deadlock naming both blocked sites *)
  let l = Layout.replicated [ (1, 2) ] in
  let arrays = [ { Node.ad_name = "x"; ad_elt = Ast.Real; ad_layout = l } ] in
  let body =
    [ Node.N_if
        { cond = Ast.Bin (Ast.Eq, myp, int_e 0);
          then_ = [ Node.N_recv { src = int_e 1; tag = 4; loc = nloc } ];
          else_ = [ Node.N_bcast { root = int_e 1;
                                   payload = Node.P_scalar "s"; site = 9; loc = nloc } ] ; loc = nloc } ]
  in
  match run_with (node_prog ~arrays body) 2 with
  | _ -> Alcotest.fail "expected deadlock"
  | exception Scheduler.Sim_error (Scheduler.Deadlock wf) ->
    check_int "both procs reported" 2 (List.length wf.Scheduler.waiting);
    let s = Scheduler.error_to_string (Scheduler.Deadlock wf) in
    check "recv site named" true
      (contains s "recv from p1 tag 4");
    check "collective site named" true
      (contains s "collective site 9")

(* --- Strict-validity diagnostics per distribution ----------------------- *)

let strict_validity_structured () =
  (* a deliberately communication-elided program: p1 reads x(1), which
     p0 owns and never sent.  The error must name the processor, the
     array, and the element, under every distribution strategy. *)
  List.iter
    (fun (name, dist) ->
      let l = { Layout.bounds = [ (1, 8) ]; dist_dim = Some 0; dist } in
      let arrays = [ { Node.ad_name = "x"; ad_elt = Ast.Real; ad_layout = l } ] in
      let body =
        [ Node.N_if
            { cond = Ast.Bin (Ast.Eq, myp, int_e 1);
              then_ = [ Node.N_assign (Ast.Var "v", Ast.Ref ("x", [ int_e 1 ])) ];
              else_ = [] ; loc = nloc } ]
      in
      match run_with (node_prog ~arrays body) 2 with
      | _ -> Alcotest.fail (name ^ ": expected strict-validity violation")
      | exception
          Scheduler.Sim_error
            (Scheduler.Invalid_read { proc; array; index; _ } as err) ->
        check (name ^ ": proc") true (proc = 1);
        check (name ^ ": array") true (array = "x");
        check (name ^ ": index") true (index = [| 1 |]);
        let s = Scheduler.error_to_string err in
        check (name ^ ": message") true
          (contains s "p1"
          && contains s "x(1)"))
    [ ("block", Layout.Block 4); ("cyclic", Layout.Cyclic);
      ("block-cyclic", Layout.Block_cyclic 2) ]

(* --- Deadlock events in the trace ring ----------------------------------- *)

(* The ring is the simulator's only event timeline, so a deadlocked run
   must leave one Block event per processor parked on a receive, naming
   the source and tag the wait-for graph names.  A processor stuck at a
   collective that never releases records no Coll_enter. *)
let ring_counts_fault_events () =
  let module Tr = Fd_trace.Trace in
  let l = Layout.replicated [ (1, 2) ] in
  let arrays = [ { Node.ad_name = "x"; ad_elt = Ast.Real; ad_layout = l } ] in
  let recv src tag = Node.N_recv { src = int_e src; tag; loc = nloc } in
  let bcast = Node.N_bcast { root = int_e 1; payload = Node.P_scalar "s"; site = 9; loc = nloc } in
  let cases =
    [ ("2-cycle", 2, [ Node.N_if { cond = Ast.Bin (Ast.Eq, myp, int_e 0);
                                   then_ = [ recv 1 3 ]; else_ = [ recv 0 3 ]; loc = nloc } ]);
      ("3-cycle", 3, [ Node.N_if { cond = Ast.Bin (Ast.Eq, myp, int_e 0);
                                   then_ = [ recv 2 5 ];
                                   else_ = [ Node.N_if { cond = Ast.Bin (Ast.Eq, myp, int_e 1);
                                                         then_ = [ recv 0 6 ];
                                                         else_ = [ recv 1 7 ]; loc = nloc } ];
                                   loc = nloc } ]);
      ("recv+collective", 2, [ Node.N_if { cond = Ast.Bin (Ast.Eq, myp, int_e 0);
                                           then_ = [ recv 1 4 ]; else_ = [ bcast ]; loc = nloc } ]) ]
  in
  List.iter
    (fun (name, nprocs, body) ->
      let tr = Tr.create () in
      match run_with ~trace:tr (node_prog ~nprocs ~arrays body) nprocs with
      | _ -> Alcotest.fail (name ^ ": expected deadlock")
      | exception Scheduler.Sim_error (Scheduler.Deadlock wf) ->
        let parked =
          List.filter_map
            (fun w ->
              match w.Scheduler.w_on with
              | Scheduler.On_recv { src; tag; _ } -> Some (w.Scheduler.w_proc, src, tag)
              | _ -> None)
            wf.Scheduler.waiting
        in
        let blocks =
          List.filter_map
            (fun e -> if e.Tr.kind = Tr.Block then Some (e.Tr.proc, e.Tr.peer, e.Tr.tag) else None)
            (Tr.to_list tr)
        in
        check_int (name ^ ": ring kept every event") 0 (Tr.dropped tr);
        check_int (name ^ ": one Block per parked receiver") (List.length parked)
          (Tr.count tr ~kind:Tr.Block);
        check (name ^ ": Blocks name the wait-for graph's receives") true
          (List.sort compare blocks = List.sort compare parked);
        check_int (name ^ ": no collective released") 0 (Tr.count tr ~kind:Tr.Coll_enter))
    cases

(* --- Determinism and the differential oracle ------------------------------ *)

(* A generated program is a function of its seed, and the simulation of
   it is deterministic: two runs give the same Stats in every field. *)
let same_seed_same_stats () =
  let opts = { Options.default with Options.nprocs = 4 } in
  List.iter
    (fun seed ->
      let src = Fd_workloads.Gen.random_source (Random.State.make [| seed |]) in
      let src' = Fd_workloads.Gen.random_source (Random.State.make [| seed |]) in
      check (Fmt.str "seed %d: same program" seed) true (String.equal src src');
      let r1 = Driver.run_source ~opts src in
      let r2 = Driver.run_source ~opts src' in
      check (Fmt.str "seed %d: both verified" seed) true
        (Driver.verified r1 && Driver.verified r2);
      check (Fmt.str "seed %d: messages sent" seed) true
        (r1.Driver.stats.Stats.messages > 0 || r1.Driver.stats.Stats.bcasts > 0);
      check (Fmt.str "seed %d: identical stats JSON" seed) true
        (String.equal
           (Fd_support.Json.to_string (Stats.to_json r1.Driver.stats))
           (Fd_support.Json.to_string (Stats.to_json r2.Driver.stats))))
    [ 11; 42 ]

(* Each workload, under every strategy, computes on the simulated machine
   what the sequential interpreter computes. *)
let oracle_workloads () =
  let workloads =
    [ ("dgefa", Fd_workloads.Dgefa.source ~n:8 ());
      ("jacobi1d", Fd_workloads.Stencil.jacobi1d ~n:32 ~t:2 ());
      ("adi-dynamic", Fd_workloads.Adi.dynamic ~n:8 ~t:1 ()) ]
  in
  List.iter
    (fun (name, src) ->
      List.iter
        (fun strategy ->
          let opts = { Options.default with Options.nprocs = 4; strategy } in
          let r = Driver.run_source ~opts src in
          check (Fmt.str "%s %s verified" name (Options.strategy_name strategy)) true
            (Driver.verified r))
        [ Options.Interproc; Options.Immediate; Options.Runtime_resolution ])
    workloads

let suite =
  [
    Alcotest.test_case "deadlock cycle extracted" `Quick deadlock_cycle_extracted;
    Alcotest.test_case "deadlock names collective sites" `Quick deadlock_names_collective_sites;
    Alcotest.test_case "deadlock mixed recv+collective" `Quick deadlock_mixed_recv_and_collective;
    Alcotest.test_case "strict validity structured" `Quick strict_validity_structured;
    Alcotest.test_case "trace ring counts fault events" `Quick ring_counts_fault_events;
    Alcotest.test_case "same seed same stats" `Quick same_seed_same_stats;
    Alcotest.test_case "oracle over workloads" `Quick oracle_workloads;
  ]
