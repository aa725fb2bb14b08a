(* The ensemble tracing & metrics layer: ring-buffer semantics, the
   metrics registry, exporter shapes, and the cross-layer properties —
   trace totals agree with Stats, the dynamic trace refines the static
   verifier's skeleton, and traces are bit-identical across runs. *)

open Fd_core
open Fd_machine
module Tr = Fd_trace.Trace
module Metrics = Fd_trace.Metrics
module Export = Fd_trace.Export

let prop ?(count = 60) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

(* --- Ring buffer --------------------------------------------------------- *)

let ring_basics () =
  let t = Tr.create ~capacity:8 () in
  for i = 0 to 4 do
    Tr.emit t ~kind:Tr.Send ~at:(float_of_int i) ~proc:i ~peer:0 ~tag:1 ()
  done;
  Alcotest.(check int) "total" 5 (Tr.total t);
  Alcotest.(check int) "length" 5 (Tr.length t);
  Alcotest.(check int) "dropped" 0 (Tr.dropped t);
  let procs = List.map (fun e -> e.Tr.proc) (Tr.to_list t) in
  Alcotest.(check (list int)) "chronological" [ 0; 1; 2; 3; 4 ] procs

let ring_wraps () =
  let t = Tr.create ~capacity:4 () in
  for i = 0 to 9 do
    Tr.emit t ~kind:Tr.Send ~at:(float_of_int i) ~proc:i ()
  done;
  Alcotest.(check int) "total counts all emissions" 10 (Tr.total t);
  Alcotest.(check int) "length capped" 4 (Tr.length t);
  Alcotest.(check int) "dropped = overwritten" 6 (Tr.dropped t);
  let procs = List.map (fun e -> e.Tr.proc) (Tr.to_list t) in
  Alcotest.(check (list int)) "retains the newest window" [ 6; 7; 8; 9 ] procs

let ring_count () =
  let t = Tr.create () in
  Tr.emit t ~kind:Tr.Send ~at:0.0 ~proc:0 ();
  Tr.emit t ~kind:Tr.Recv ~at:1.0 ~proc:1 ();
  Tr.emit t ~kind:Tr.Send ~at:2.0 ~proc:0 ();
  Alcotest.(check int) "count Send" 2 (Tr.count t ~kind:Tr.Send);
  Alcotest.(check int) "count Recv" 1 (Tr.count t ~kind:Tr.Recv);
  Alcotest.(check int) "count Span" 0 (Tr.count t ~kind:Tr.Span)

(* --- Metrics registry ----------------------------------------------------- *)

let metrics_registry () =
  let m = Metrics.create () in
  let c = Metrics.counter m "messages" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  Alcotest.(check int) "counter" 5 c.Metrics.c_value;
  let c' = Metrics.counter m "messages" in
  Metrics.incr c';
  Alcotest.(check int) "find-or-register shares state" 6 c.Metrics.c_value;
  let g = Metrics.gauge m "elapsed" in
  Metrics.set g 2.5;
  let h = Metrics.histogram m "wait" ~bounds:[| 1.0; 10.0 |] in
  List.iter (Metrics.observe h) [ 0.5; 5.0; 100.0; 2.0 ];
  Alcotest.(check int) "histogram count" 4 h.Metrics.h_count;
  Alcotest.(check (float 1e-9)) "histogram mean" 26.875 (Metrics.mean h);
  Alcotest.(check (list int))
    "bucket counts (le 1, le 10, inf)" [ 1; 2; 1 ]
    (Array.to_list h.Metrics.h_counts);
  (match Metrics.find m "nope" with
  | None -> ()
  | Some _ -> Alcotest.fail "found an unregistered metric");
  Alcotest.check_raises "kind clash" (Invalid_argument "Metrics: messages is not a gauge")
    (fun () -> ignore (Metrics.gauge m "messages"));
  let names = List.map fst (Metrics.items m) in
  Alcotest.(check (list string))
    "registration order" [ "messages"; "elapsed"; "wait" ] names;
  match Metrics.to_json m with
  | Fd_support.Json.Obj [ ("messages", Fd_support.Json.Int 6);
                          ("elapsed", Fd_support.Json.Float 2.5);
                          ("wait", Fd_support.Json.Obj _) ] -> ()
  | j -> Alcotest.failf "unexpected metrics json: %s" (Fd_support.Json.to_string j)

(* --- Traced runs ---------------------------------------------------------- *)

let run_traced ?(nprocs = 4) ?(strategy = Options.Interproc) src =
  let tr = Tr.create () in
  let opts = { Options.default with Options.nprocs; strategy } in
  let machine = Config.make ~nprocs ~trace:tr () in
  let r = Driver.run_source ~opts ~machine src in
  (tr, r)

let pivot_src =
  (* one nearest-neighbour shift: every interior boundary sends *)
  "program t\n\
  \  parameter (n = 32)\n\
  \  real a(32), b(32)\n\
  \  integer i\n\
  \  distribute a(block)\n\
  \  distribute b(block)\n\
  \  do i = 1, n\n\
  \    a(i) = float(i)\n\
  \    b(i) = 0.0\n\
  \  enddo\n\
  \  do i = 1, n - 1\n\
  \    b(i) = a(i+1)\n\
  \  enddo\n\
  \  print *, b(1)\n\
  end\n"

let trace_agrees_with_stats_on_shift () =
  let tr, r = run_traced pivot_src in
  let stats = r.Driver.stats in
  Alcotest.(check bool) "verified" true (Driver.verified r);
  Alcotest.(check int) "sends = Stats.messages" stats.Stats.messages
    (Tr.count tr ~kind:Tr.Send);
  Alcotest.(check int) "recvs = Stats.messages" stats.Stats.messages
    (Tr.count tr ~kind:Tr.Recv);
  let sent_bytes = Tr.fold tr 0 (fun acc e ->
      if e.Tr.kind = Tr.Send then acc + e.Tr.bytes else acc)
  in
  Alcotest.(check int) "send bytes = Stats.message_bytes"
    stats.Stats.message_bytes sent_bytes

let chrome_export_shape () =
  let tr, _r = run_traced pivot_src in
  match Export.chrome ~nprocs:4 tr with
  | Fd_support.Json.Obj fields ->
    (match List.assoc_opt "traceEvents" fields with
    | Some (Fd_support.Json.List evs) ->
      Alcotest.(check bool) "has events" true (List.length evs > 4);
      List.iter
        (fun ev ->
          match ev with
          | Fd_support.Json.Obj f ->
            let has k = List.mem_assoc k f in
            Alcotest.(check bool) "name/ph/pid/tid present" true
              (has "name" && has "ph" && has "pid" && has "tid")
          | _ -> Alcotest.fail "traceEvents entry is not an object")
        evs
    | _ -> Alcotest.fail "no traceEvents list")
  | j -> Alcotest.failf "chrome export not an object: %s" (Fd_support.Json.to_string j)

let matrix_symmetry () =
  let tr, r = run_traced pivot_src in
  let m = Export.matrix ~nprocs:4 tr in
  let total = Array.fold_left (fun a row -> Array.fold_left ( + ) a row) 0 m.Export.m_msgs in
  Alcotest.(check int) "matrix total = Stats.messages" r.Driver.stats.Stats.messages total;
  (* the shift communicates only between lattice neighbours *)
  Array.iteri
    (fun s row ->
      Array.iteri
        (fun d n -> if n > 0 then Alcotest.(check int) "neighbour-only" 1 (abs (s - d)))
        row)
    m.Export.m_msgs

let summary_totals () =
  let tr, r = run_traced pivot_src in
  let stats = r.Driver.stats in
  let rows =
    Export.summary ~nprocs:4 ~busy:stats.Stats.busy
      ~elapsed:(Stats.elapsed stats) tr
  in
  let sends = List.fold_left (fun a s -> a + s.Export.s_sends) 0 rows in
  let bytes_out = List.fold_left (fun a s -> a + s.Export.s_bytes_out) 0 rows in
  let bytes_in = List.fold_left (fun a s -> a + s.Export.s_bytes_in) 0 rows in
  Alcotest.(check int) "summary sends" stats.Stats.messages sends;
  Alcotest.(check int) "bytes out = bytes in" bytes_out bytes_in

let stats_to_metrics () =
  let tr, r = run_traced pivot_src in
  let stats = r.Driver.stats in
  let m = Stats.to_metrics stats in
  Export.observe m tr;
  (match Metrics.find m "messages" with
  | Some (Metrics.Counter c) ->
    Alcotest.(check int) "messages counter" stats.Stats.messages c.Metrics.c_value
  | _ -> Alcotest.fail "no messages counter");
  (match Metrics.find m "recv_wait_seconds" with
  | Some (Metrics.Histogram h) ->
    Alcotest.(check int) "one wait sample per recv" stats.Stats.messages
      h.Metrics.h_count
  | _ -> Alcotest.fail "no recv_wait histogram");
  match Metrics.find m "message_size_bytes" with
  | Some (Metrics.Histogram h) ->
    Alcotest.(check (float 1e-9)) "byte histogram sums to Stats"
      (float_of_int stats.Stats.message_bytes)
      h.Metrics.h_sum
  | _ -> Alcotest.fail "no message_bytes histogram"

(* --- Properties over generated programs ----------------------------------- *)

let strategies =
  [ Options.Interproc; Options.Immediate; Options.Runtime_resolution ]

let seed_gen = QCheck2.Gen.int_range 0 100_000

let src_of_seed ?(two_d = false) seed =
  let st = Random.State.make [| seed |] in
  if two_d then Fd_workloads.Gen.random_source2d st
  else Fd_workloads.Gen.random_source st

(* Send/recv multisets: on a reliable network every message is delivered
   exactly once, so the recv multiset keyed by (src, dest, tag, seq,
   bytes) must equal the send multiset, and both totals must equal
   Stats.messages. *)
let replay_matches_stats seed =
  let src = src_of_seed seed in
  List.for_all
    (fun strategy ->
      let tr, r = run_traced ~strategy src in
      let sends = Hashtbl.create 64 and recvs = Hashtbl.create 64 in
      let bump tbl key =
        Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
      in
      Tr.iter tr (fun e ->
          match e.Tr.kind with
          | Tr.Send -> bump sends (e.Tr.proc, e.Tr.peer, e.Tr.tag, e.Tr.seq, e.Tr.bytes)
          | Tr.Recv -> bump recvs (e.Tr.peer, e.Tr.proc, e.Tr.tag, e.Tr.seq, e.Tr.bytes)
          | _ -> ());
      let sorted tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
      Driver.verified r
      && Tr.count tr ~kind:Tr.Send = r.Driver.stats.Stats.messages
      && sorted sends = sorted recvs)
    strategies

(* The dynamic trace refines the static verifier's skeleton: every traced
   send's (proc, dest, tag) is present among the skeleton's send events
   (dest None and tags the walker marked fuzzy act as wildcards).  Only
   checked when the abstract walk covered the whole program. *)
let trace_within_skeleton seed =
  let src = src_of_seed seed in
  List.for_all
    (fun strategy ->
      let opts = { Options.default with Options.strategy } in
      let compiled = Driver.compile_source ~opts src in
      let w = Fd_verify.Absint.walk ~nprocs:4 compiled.Codegen.program in
      (not w.Fd_verify.Absint.complete)
      ||
      let skel_sends =
        List.filter_map
          (fun (e : Fd_verify.Skeleton.event) ->
            match e.Fd_verify.Skeleton.e_kind with
            | Fd_verify.Skeleton.Ev_send { dest; tag; _ } ->
              Some (e.Fd_verify.Skeleton.e_plo, e.Fd_verify.Skeleton.e_phi,
                    dest, tag)
            | _ -> None)
          w.Fd_verify.Absint.events
      in
      let fuzzy = w.Fd_verify.Absint.fuzzy_tags in
      let tr, r = run_traced ~strategy src in
      Driver.verified r
      && Tr.fold tr true (fun ok e ->
             ok
             &&
             match e.Tr.kind with
             | Tr.Send ->
               List.exists
                 (fun (plo, phi, dest, tag) ->
                   plo <= e.Tr.proc && e.Tr.proc <= phi
                   && (match dest with
                      | None -> true
                      | Some d ->
                        Fd_verify.Skeleton.aff_at d e.Tr.proc = e.Tr.peer)
                   && (tag = e.Tr.tag || Hashtbl.mem fuzzy tag))
                 skel_sends
             | _ -> true))
    strategies

(* Simulation is deterministic: two runs of the same program produce
   traces identical in every field. *)
let deterministic_reruns seed =
  let src = src_of_seed seed in
  let tr1, r1 = run_traced src in
  let tr2, r2 = run_traced src in
  Driver.verified r1 && Driver.verified r2
  && Tr.total tr1 = Tr.total tr2
  && Tr.to_list tr1 = Tr.to_list tr2

let deterministic_2d seed =
  let src = src_of_seed ~two_d:true seed in
  let tr1, r1 = run_traced src in
  let tr2, r2 = run_traced src in
  Driver.verified r1 && Driver.verified r2 && Tr.to_list tr1 = Tr.to_list tr2

(* Pipeline spans: one per pass, in pass order. *)
let pipeline_spans () =
  let tr = Tr.create () in
  let opts = Options.default in
  let ctx = Pipeline.of_source ~opts pivot_src in
  let _report = Pipeline.run ~tracer:tr ctx in
  let spans =
    List.filter_map
      (fun e -> if e.Tr.kind = Tr.Span then Some e.Tr.label else None)
      (Tr.to_list tr)
  in
  Alcotest.(check (list string)) "one span per pass, in order"
    Pipeline.pass_names spans

let suite =
  [
    Alcotest.test_case "ring: basics" `Quick ring_basics;
    Alcotest.test_case "ring: wrap-around retains newest" `Quick ring_wraps;
    Alcotest.test_case "ring: count by kind" `Quick ring_count;
    Alcotest.test_case "metrics: registry semantics" `Quick metrics_registry;
    Alcotest.test_case "trace totals agree with Stats" `Quick
      trace_agrees_with_stats_on_shift;
    Alcotest.test_case "chrome export shape" `Quick chrome_export_shape;
    Alcotest.test_case "communication matrix" `Quick matrix_symmetry;
    Alcotest.test_case "per-processor summary" `Quick summary_totals;
    Alcotest.test_case "Stats.to_metrics + trace histograms" `Quick
      stats_to_metrics;
    Alcotest.test_case "pipeline pass spans" `Quick pipeline_spans;
    prop ~count:25 "generated: send/recv multisets match Stats" seed_gen
      replay_matches_stats;
    prop ~count:15 "generated: trace within static skeleton" seed_gen
      trace_within_skeleton;
    prop ~count:20 "generated: fault-free traces bit-identical across reruns"
      seed_gen deterministic_reruns;
    prop ~count:10 "generated 2-D: traces bit-identical across reruns" seed_gen
      deterministic_2d;
  ]
