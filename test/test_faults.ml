(* Fault injection and resilient-protocol tests: deterministic fault
   plans, ack/retransmit recovery, sequence-number dedup, the
   differential oracle against sequential execution, structured failure
   diagnostics (wait-for graphs, strict-validity naming, watchdog), and
   the zero-overhead-when-disabled regression. *)

open Fd_support
open Fd_frontend
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

(* p0 sends x(1:4) to p1 under tag 1; p1 receives *)
let pingpong_prog () =
  let l = { Layout.bounds = [ (1, 8) ]; dist_dim = Some 0; dist = Layout.Block 4 } in
  let arrays = [ { Node.ad_name = "x"; ad_elt = Ast.Real; ad_layout = l } ] in
  node_prog ~arrays
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

let run_with ?faults prog nprocs =
  Scheduler.run (Config.make ~nprocs ?faults ()) prog

(* --- Fault plan primitives -------------------------------------------- *)

let fault_plan_deterministic () =
  let plan = Fault.make ~seed:3 ~drop:0.3 ~dup:0.2 ~delay:1e-4 ~reorder:0.1 () in
  for seq = 0 to 20 do
    let d1 = Fault.deliver plan ~msg_cost:1e-4 ~src:0 ~dest:1 ~tag:5 ~seq in
    let d2 = Fault.deliver plan ~msg_cost:1e-4 ~src:0 ~dest:1 ~tag:5 ~seq in
    check "same decision" true (d1 = d2)
  done;
  (* different seeds decide differently somewhere over a long stream *)
  let plan' = { plan with Fault.seed = 4 } in
  let differs = ref false in
  for seq = 0 to 200 do
    let d1 = Fault.deliver plan ~msg_cost:1e-4 ~src:0 ~dest:1 ~tag:5 ~seq in
    let d2 = Fault.deliver plan' ~msg_cost:1e-4 ~src:0 ~dest:1 ~tag:5 ~seq in
    if d1 <> d2 then differs := true
  done;
  check "seeds differ" true !differs

let fault_plan_selectors () =
  let plan = Fault.make ~seed:1 ~drop:1.0 ~max_retries:0 ~tags:[ 7 ] ()
  in
  let hit = Fault.deliver plan ~msg_cost:1e-4 ~src:0 ~dest:1 ~tag:7 ~seq:0 in
  let miss = Fault.deliver plan ~msg_cost:1e-4 ~src:0 ~dest:1 ~tag:8 ~seq:0 in
  check "selected tag faulted" true hit.Fault.lost;
  check "other tag clean" false miss.Fault.lost;
  check_int "clean delivery injects nothing" 0 miss.Fault.injected

let fault_backoff_grows () =
  (* with drop just under 1 the added delay is the sum of exponentially
     growing timeouts: retries must cost more than the first timeout *)
  let plan = Fault.make ~seed:9 ~drop:0.9 ~rto:1e-3 ~backoff:2.0 ~max_retries:12 () in
  let rec find seq =
    if seq > 500 then Alcotest.fail "no multi-retry delivery found"
    else
      let d = Fault.deliver plan ~msg_cost:0.0 ~src:0 ~dest:1 ~tag:1 ~seq in
      if (not d.Fault.lost) && d.Fault.attempts >= 3 then d else find (seq + 1)
  in
  let d = find 0 in
  (* attempts >= 3 means timeouts 1ms + 2ms (+...) elapsed *)
  check "backoff accumulates" true (d.Fault.added_delay >= 3e-3)

(* --- Protocol recovery under the scheduler ------------------------------ *)

let sched_recovers_from_drops () =
  let faults = Fault.make ~seed:5 ~drop:0.5 () in
  let stats, frames = run_with ~faults (pingpong_prog ()) 2 in
  (match Hashtbl.find frames.(1) "x" with
  | Interp.Barray obj ->
    check "value arrived despite drops" true
      (Value.to_float (Storage.read ~strict:true obj [| 3 |]) = 3.0)
  | _ -> Alcotest.fail "x missing");
  check_int "still one logical message" 1 stats.Stats.messages

let sched_dedups_duplicates () =
  let faults = Fault.make ~seed:5 ~dup:1.0 () in
  let stats, frames = run_with ~faults (pingpong_prog ()) 2 in
  check_int "duplicate copy dropped" 1 stats.Stats.duplicates_dropped;
  check "faults counted" true (stats.Stats.faults_injected >= 1);
  match Hashtbl.find frames.(1) "x" with
  | Interp.Barray obj ->
    check "payload correct" true
      (Value.to_float (Storage.read ~strict:true obj [| 2 |]) = 2.0)
  | _ -> Alcotest.fail "x missing"

let sched_retry_slows_clock () =
  (* recovery latency must be charged to virtual time: a lossy network
     is slower than a clean one and the delay is accounted in stats *)
  let clean, _ = run_with (pingpong_prog ()) 2 in
  let faults = Fault.make ~seed:2 ~drop:0.9 ~max_retries:20 () in
  let lossy, _ = run_with ~faults (pingpong_prog ()) 2 in
  check "some retransmits happened" true (lossy.Stats.retransmits > 0);
  check "delay accounted" true (lossy.Stats.fault_delay > 0.0);
  check "lossy run is slower" true
    (Stats.elapsed lossy > Stats.elapsed clean)

let sched_lost_message_is_structured () =
  (* drop everything, no retries left: the receiver starves and the run
     must end in a Deadlock carrying the lost message, not a hang *)
  let faults = Fault.make ~seed:1 ~drop:1.0 ~max_retries:2 () in
  match run_with ~faults (pingpong_prog ()) 2 with
  | _ -> Alcotest.fail "expected Sim_error"
  | exception Scheduler.Sim_error (Scheduler.Deadlock wf) ->
    check_int "one lost message" 1 (List.length wf.Scheduler.lost);
    let l = List.hd wf.Scheduler.lost in
    check_int "lost src" 0 l.Scheduler.l_src;
    check_int "lost dest" 1 l.Scheduler.l_dest;
    check_int "lost tag" 1 l.Scheduler.l_tag;
    check_int "attempts = 1 + max_retries" 3 l.Scheduler.l_attempts;
    check "receiver in wait-for graph" true
      (List.exists
         (fun w ->
           w.Scheduler.w_proc = 1
           && match w.Scheduler.w_on with
              | Scheduler.On_recv { src = 0; tag = 1; _ } -> true
              | _ -> false)
         wf.Scheduler.waiting);
    let s = Scheduler.error_to_string (Scheduler.Deadlock wf) in
    check "message names the loss" true
      (contains s "lost after 3 attempts")

let sched_watchdog_fires () =
  let faults = Fault.make ~seed:1 ~watchdog:1e-9 () in
  match run_with ~faults (pingpong_prog ()) 2 with
  | _ -> Alcotest.fail "expected watchdog"
  | exception Scheduler.Sim_error (Scheduler.Watchdog { limit; _ }) ->
    check "limit reported" true (limit = 1e-9)

let sched_slowdown_scales_time () =
  let base, _ = run_with (pingpong_prog ()) 2 in
  let faults = Fault.make ~seed:1 ~slowdown:[ (0, 50.0) ] () in
  let slow, _ = run_with ~faults (pingpong_prog ()) 2 in
  check "slow processor stretches the makespan" true
    (Stats.elapsed slow > Stats.elapsed base);
  check "busy time scales too" true (slow.Stats.busy.(0) > base.Stats.busy.(0))

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
  (* satellite: one processor at a collective while the other is stuck
     on a receive must be a deadlock naming both blocked sites *)
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

(* --- Zero-overhead default and determinism ------------------------------ *)

let no_faults_is_baseline () =
  (* regression: a zero-intensity plan must be indistinguishable from no
     plan at all — same schedule, same stats, zero fault counters *)
  let src = Fd_workloads.Stencil.jacobi1d ~n:64 ~t:3 () in
  let r0 = Fd_core.Driver.run_source src in
  let machine =
    Config.make ~nprocs:4 ~faults:(Fault.make ~seed:99 ()) ()
  in
  let r1 = Fd_core.Driver.run_source ~machine src in
  check "both verified" true (Fd_core.Driver.verified r0 && Fd_core.Driver.verified r1);
  check "identical stats JSON" true
    (Json.equal (Stats.to_json r0.Fd_core.Driver.stats)
       (Stats.to_json r1.Fd_core.Driver.stats));
  check_int "no faults injected" 0 r0.Fd_core.Driver.stats.Stats.faults_injected;
  check_int "no retransmits" 0 r0.Fd_core.Driver.stats.Stats.retransmits;
  check_int "no dedups" 0 r0.Fd_core.Driver.stats.Stats.duplicates_dropped;
  check "no watchdog" false r0.Fd_core.Driver.stats.Stats.watchdog_fired

let same_seed_same_stats () =
  let src = Fd_workloads.Stencil.jacobi1d ~n:64 ~t:3 () in
  let machine =
    Config.make ~nprocs:4
      ~faults:(Fault.make ~seed:13 ~drop:0.2 ~dup:0.1 ~delay:2e-4 ())
      ()
  in
  let r1 = Fd_core.Driver.run_source ~machine src in
  let r2 = Fd_core.Driver.run_source ~machine src in
  check "faults active" true (r1.Fd_core.Driver.stats.Stats.faults_injected > 0);
  check "identical stats across reruns" true
    (Json.equal (Stats.to_json r1.Fd_core.Driver.stats)
       (Stats.to_json r2.Fd_core.Driver.stats))

(* --- Fault events in the trace ring -------------------------------------- *)

(* The trace ring is the simulator's only event timeline, so its
   recovery events must agree with the fault counters. *)
let ring_counts_faults () =
  let module Tr = Fd_trace.Trace in
  let src = Fd_workloads.Stencil.jacobi1d ~n:64 ~t:3 () in
  List.iter
    (fun seed ->
      let tr = Tr.create () in
      let machine =
        Config.make ~nprocs:4 ~trace:tr
          ~faults:(Fault.make ~seed ~drop:0.3 ~dup:0.3 ~delay:2e-4 ())
          ()
      in
      let st = (Fd_core.Driver.run_source ~machine src).Fd_core.Driver.stats in
      let name what = Fmt.str "seed %d: %s" seed what in
      check_int (name "ring kept every event") 0 (Tr.dropped tr);
      check (name "duplicates injected") true (st.Stats.duplicates_dropped > 0);
      check_int (name "one Dedup per duplicate dropped")
        st.Stats.duplicates_dropped (Tr.count tr ~kind:Tr.Dedup);
      check_int (name "one Lost per message lost") st.Stats.messages_lost
        (Tr.count tr ~kind:Tr.Lost);
      check (name "retransmits recorded") true
        (st.Stats.retransmits > 0 && Tr.count tr ~kind:Tr.Retransmit > 0))
    [ 11; 42 ];
  (* a message lost for good ends the run in a deadlock naming it; the
     ring holds one Lost event per lost message *)
  let tr = Tr.create () in
  let config =
    Config.make ~nprocs:2 ~trace:tr
      ~faults:(Fault.make ~seed:1 ~drop:1.0 ~max_retries:2 ())
      ()
  in
  match Scheduler.run config (pingpong_prog ()) with
  | _ -> Alcotest.fail "expected Sim_error"
  | exception Scheduler.Sim_error (Scheduler.Deadlock wf) ->
    check_int "one Lost per lost message" (List.length wf.Scheduler.lost)
      (Tr.count tr ~kind:Tr.Lost);
    check "the lost message was retransmitted" true
      (Tr.count tr ~kind:Tr.Retransmit > 0)

(* --- Differential oracle over the workloads ----------------------------- *)

let oracle_workloads () =
  let workloads =
    [ ("dgefa", Fd_workloads.Dgefa.source ~n:8 ());
      ("jacobi1d", Fd_workloads.Stencil.jacobi1d ~n:32 ~t:2 ());
      ("adi-dynamic", Fd_workloads.Adi.dynamic ~n:8 ~t:1 ()) ]
  in
  List.iter
    (fun (name, src) ->
      List.iter
        (fun seed ->
          let machine =
            Config.make ~nprocs:4
              ~faults:(Fault.make ~seed ~drop:0.25 ~dup:0.15 ~delay:5e-4 ())
              ()
          in
          let r = Fd_core.Driver.run_source ~machine src in
          check (Fmt.str "%s seed %d verified" name seed) true
            (Fd_core.Driver.verified r))
        [ 11; 42 ])
    workloads

let suite =
  [
    Alcotest.test_case "fault plan determinism" `Quick fault_plan_deterministic;
    Alcotest.test_case "fault plan selectors" `Quick fault_plan_selectors;
    Alcotest.test_case "fault backoff grows" `Quick fault_backoff_grows;
    Alcotest.test_case "scheduler recovers from drops" `Quick sched_recovers_from_drops;
    Alcotest.test_case "scheduler dedups duplicates" `Quick sched_dedups_duplicates;
    Alcotest.test_case "retry latency charged to clock" `Quick sched_retry_slows_clock;
    Alcotest.test_case "lost message is structured" `Quick sched_lost_message_is_structured;
    Alcotest.test_case "watchdog fires" `Quick sched_watchdog_fires;
    Alcotest.test_case "slowdown scales time" `Quick sched_slowdown_scales_time;
    Alcotest.test_case "deadlock cycle extracted" `Quick deadlock_cycle_extracted;
    Alcotest.test_case "deadlock names collective sites" `Quick deadlock_names_collective_sites;
    Alcotest.test_case "deadlock mixed recv+collective" `Quick deadlock_mixed_recv_and_collective;
    Alcotest.test_case "strict validity structured" `Quick strict_validity_structured;
    Alcotest.test_case "no faults = baseline" `Quick no_faults_is_baseline;
    Alcotest.test_case "same seed same stats" `Quick same_seed_same_stats;
    Alcotest.test_case "oracle over workloads" `Quick oracle_workloads;
    Alcotest.test_case "trace ring counts fault events" `Quick ring_counts_faults;
  ]
