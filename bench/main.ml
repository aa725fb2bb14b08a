(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md section 5 for the experiment index and
   EXPERIMENTS.md for paper-vs-measured discussion).

     dune exec bench/main.exe            -- all experiment tables
     dune exec bench/main.exe -- quick   -- smaller sweeps
     dune exec bench/main.exe -- e20     -- E20 alone (with [quick]: P <= 1024)
*)

open Fd_core
open Fd_machine

let quick = Array.exists (String.equal "quick") Sys.argv

let header title =
  Fmt.pr "@.=== %s ===@." title

let run ?(nprocs = 4) ?(strategy = Options.Interproc) ?(remap = Options.Remap_kill)
    ?(collectives = true) src =
  let opts =
    { Options.default with
      Options.nprocs; strategy; remap_level = remap; use_collectives = collectives }
  in
  let r = Driver.run_source ~opts src in
  if not (Driver.verified r) then
    failwith (Fmt.str "verification failed (%d mismatches)" (List.length r.Driver.mismatches));
  r

let ms r = Stats.elapsed r.Driver.stats *. 1e3
let msgs r = r.Driver.stats.Stats.messages
let bcasts r = r.Driver.stats.Stats.bcasts
let bytes r = r.Driver.stats.Stats.message_bytes + r.Driver.stats.Stats.bcast_bytes

(* --- E1: Figure 2 (compiled) vs Figure 3 (run-time resolution) ---------- *)

let e1 () =
  header "E1: Figure 2 vs Figure 3 - compiled vs run-time resolution (fig1 kernel, P=4)";
  Fmt.pr "%6s | %-10s | %8s | %9s | %12s | %8s@." "N" "strategy" "messages"
    "bytes" "elapsed (ms)" "ratio";
  Fmt.pr "-------+------------+----------+-----------+--------------+---------@.";
  List.iter
    (fun n ->
      let src = Fd_workloads.Figures.fig1 ~n ~shift:5 () in
      let ip = run ~strategy:Options.Interproc src in
      let rr = run ~strategy:Options.Runtime_resolution src in
      Fmt.pr "%6d | %-10s | %8d | %9d | %12.3f | %8s@." n "compiled" (msgs ip)
        (bytes ip) (ms ip) "1.0";
      Fmt.pr "%6d | %-10s | %8d | %9d | %12.3f | %8.1f@." n "runtime" (msgs rr)
        (bytes rr) (ms rr)
        (ms rr /. ms ip))
    (if quick then [ 100; 400 ] else [ 100; 400; 1600 ])

(* --- E2: Figure 10 vs Figure 12 - delayed vs immediate instantiation ----- *)

let e2 () =
  header "E2: Figure 10 vs Figure 12 - cross-procedure message vectorization (fig4, P=4)";
  Fmt.pr "%6s | %-10s | %8s | %9s | %12s@." "N" "strategy" "messages" "bytes"
    "elapsed (ms)";
  Fmt.pr "-------+------------+----------+-----------+--------------@.";
  List.iter
    (fun n ->
      let src = Fd_workloads.Figures.fig4 ~n ~shift:5 () in
      let ip = run ~strategy:Options.Interproc src in
      let im = run ~strategy:Options.Immediate src in
      Fmt.pr "%6d | %-10s | %8d | %9d | %12.3f@." n "interproc" (msgs ip) (bytes ip) (ms ip);
      Fmt.pr "%6d | %-10s | %8d | %9d | %12.3f@." n "immediate" (msgs im) (bytes im) (ms im))
    (if quick then [ 40 ] else [ 40; 100 ]);
  Fmt.pr "(the paper's example: 1 vectorized message per boundary vs one per iteration)@."

(* --- E3: Figure 16 - dynamic decomposition optimization ladder ------------ *)

let e3 () =
  let n = if quick then 256 else 1024 and t = if quick then 10 else 50 in
  header (Fmt.str "E3: Figure 16 - dynamic remapping optimization (fig15, N=%d, T=%d, P=4)" n t);
  Fmt.pr "%-6s | %8s | %9s | %12s | %12s@." "level" "physical" "mark-only"
    "bytes moved" "elapsed (ms)";
  Fmt.pr "-------+----------+-----------+--------------+-------------@.";
  List.iter
    (fun level ->
      let r = run ~remap:level (Fd_workloads.Figures.fig15 ~n ~t ()) in
      Fmt.pr "%-6s | %8d | %9d | %12d | %12.3f@."
        (Options.remap_level_name level)
        r.Driver.stats.Stats.remaps r.Driver.stats.Stats.remap_marks
        r.Driver.stats.Stats.remap_bytes (ms r))
    [ Options.Remap_none; Options.Remap_live; Options.Remap_hoist; Options.Remap_kill ];
  Fmt.pr "(expected shape: 4T+2 / 2T+2 / 4 / 2 physical + 2 mark-only)@."

(* --- E4: Section 9 - the dgefa case study --------------------------------- *)

let e4 () =
  header "E4: Section 9 - dgefa under the three strategies (P=4)";
  Fmt.pr "%5s | %-18s | %8s | %6s | %9s | %12s | %8s@." "n" "strategy" "messages"
    "bcasts" "bytes" "elapsed (ms)" "vs best";
  Fmt.pr "------+--------------------+----------+--------+-----------+--------------+---------@.";
  List.iter
    (fun n ->
      let src = Fd_workloads.Dgefa.source ~n () in
      let results =
        List.filter_map
          (fun strategy ->
            (* run-time resolution is quadratic in message count; keep it
               to the sizes the paper could also measure *)
            if strategy = Options.Runtime_resolution && n > 64 then None
            else Some (strategy, run ~strategy src))
          [ Options.Interproc; Options.Immediate; Options.Runtime_resolution ]
      in
      let best = List.fold_left (fun acc (_, r) -> Float.min acc (ms r)) infinity results in
      List.iter
        (fun (strategy, r) ->
          Fmt.pr "%5d | %-18s | %8d | %6d | %9d | %12.3f | %8.1f@." n
            (Options.strategy_name strategy)
            (msgs r) (bcasts r) (bytes r) (ms r) (ms r /. best))
        results)
    (if quick then [ 16; 32 ] else [ 16; 32; 64 ])

(* --- E5: dgefa speedup vs processor count ---------------------------------- *)

let e5 () =
  let n = if quick then 32 else 64 in
  header (Fmt.str "E5: dgefa speedup vs processors (n=%d, interprocedural)" n);
  Fmt.pr
    "(simulated elapsed time; the per-element work w scales the@.\
    \ computation-to-communication ratio - small w is the raw i860 grain,@.\
    \ where a matrix this small is communication-bound, exactly as on the@.\
    \ real machine; larger w emulates the larger problems the paper ran)@.";
  let src = Fd_workloads.Dgefa.source ~n () in
  Fmt.pr "%12s | %6s | %12s | %10s | %10s@." "w (us/flop)" "P" "elapsed (ms)"
    "speedup" "efficiency";
  Fmt.pr "-------------+--------+--------------+------------+-----------@.";
  List.iter
    (fun grain ->
      let seq_time = ref 0.0 in
      List.iter
        (fun p ->
          let machine =
            Config.make ~nprocs:p ~flop:(grain *. 1e-6) ~mem_op:(grain *. 0.5e-6) ()
          in
          let opts = { Options.default with Options.nprocs = p } in
          let r = Driver.run_source ~opts ~machine src in
          if not (Driver.verified r) then failwith "E5 verification";
          let t = Stats.elapsed r.Driver.stats in
          if p = 1 then seq_time := t;
          let sp = !seq_time /. t in
          Fmt.pr "%12.2f | %6d | %12.3f | %10.2f | %10.2f@." grain p (t *. 1e3) sp
            (sp /. float_of_int p))
        [ 1; 2; 4; 8 ])
    (if quick then [ 0.05; 5.0 ] else [ 0.05; 1.0; 5.0 ])

(* --- E6: Section 8 - recompilation analysis --------------------------------- *)

let e6 () =
  header "E6: Section 8 - recompilation after edits (dgefa, 7 procedures)";
  let before = Fd_workloads.Dgefa.source ~n:16 () in
  let scenarios =
    [
      ("no-op edit", before);
      ( "daxpy body edit",
        Str.global_replace
          (Str.regexp_string "a(i,j) = a(i,j) + a(k,j) * a(i,k)")
          "a(i,j) = a(i,j) + 2.0 * a(k,j) * a(i,k)" before );
      ( "dscal touches extra data",
        Str.global_replace
          (Str.regexp_string "a(i,k) = -a(i,k) / t")
          "a(i,k) = -a(i,k) / t\n    a(i,k) = a(i,k) + 0.0" before );
      ( "distribution changed",
        Str.global_replace (Str.regexp_string "distribute a(:,cyclic)")
          "distribute a(:,block)" before );
    ]
  in
  Fmt.pr "%-26s | %11s | %s@." "edit" "recompiled" "procedures";
  Fmt.pr "---------------------------+-------------+---------------------------@.";
  List.iter
    (fun (name, after) ->
      let r, total = Recompile.after_edit ~before ~after () in
      Fmt.pr "%-26s | %5d of %2d | %s@." name (List.length r) total
        (String.concat "," r))
    scenarios

(* --- E7: Section 5.6 - overlap estimates vs actual --------------------------- *)

let e7 () =
  header "E7: Section 5.6 - overlap regions, estimated vs actual";
  let widths = [ 1; 2; 4; 8 ] in
  let cp =
    Fd_frontend.Sema.check_source (Fd_workloads.Stencil.shifts ~n:256 ~widths ())
  in
  let rows = Overlap.analyze (Driver.compile cp) in
  Fmt.pr "%-10s %-6s %-5s | %-16s | %-16s@." "procedure" "array" "dim"
    "estimated" "actual";
  Fmt.pr "--------------------------+------------------+-----------------@.";
  List.iter
    (fun r ->
      Fmt.pr "%-10s %-6s %-5d | [-%d,+%d]%10s | [-%d,+%d]@." r.Overlap.ov_proc
        r.Overlap.ov_array r.Overlap.ov_dim r.Overlap.ov_estimated.Overlap.neg
        r.Overlap.ov_estimated.Overlap.pos ""
        r.Overlap.ov_actual.Overlap.neg r.Overlap.ov_actual.Overlap.pos)
    rows

(* --- E8: Section 3/5 - compilation cost -------------------------------------- *)

(* fig1 (block-distributed) compiled at high P: CPU ms and the major
   heap's peak.  top_heap_words is a process-wide high-water mark, so
   [main] measures these rows first, in ascending P, before any other
   table has grown the heap. *)
let e8_high_p_measure () =
  let cp = Fd_frontend.Sema.check_source (Fd_workloads.Figures.fig1 ()) in
  List.map
    (fun nprocs ->
      let opts = { Options.default with Options.nprocs } in
      let t0 = Sys.time () in
      ignore (Driver.compile ~opts cp);
      let ms = (Sys.time () -. t0) *. 1e3 in
      let mb =
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
        /. 1048576.0
      in
      (nprocs, ms, mb))
    [ 1024; 4096; 8192; 16384 ]

let e8 high_p =
  header "E8: compilation cost (single pass per procedure)";
  let src = Fd_workloads.Dgefa.source ~n:32 () in
  let cp = Fd_frontend.Sema.check_source src in
  Fmt.pr "%-20s | %14s | %6s@." "strategy" "compile (ms)" "procs";
  Fmt.pr "---------------------+----------------+-------@.";
  List.iter
    (fun strategy ->
      let opts = { Options.default with Options.strategy } in
      let t0 = Sys.time () in
      let iters = 20 in
      let nprocs = ref 0 in
      for _ = 1 to iters do
        let c = Driver.compile ~opts cp in
        nprocs := List.length c.Codegen.program.Node.n_procs
      done;
      let dt = (Sys.time () -. t0) /. float_of_int iters *. 1e3 in
      Fmt.pr "%-20s | %14.2f | %6d@." (Options.strategy_name strategy) dt !nprocs)
    [ Options.Interproc; Options.Immediate; Options.Runtime_resolution ];
  Fmt.pr "@.fig1 (block) at high P, interproc:@.";
  Fmt.pr "%8s | %14s | %14s@." "P" "compile (ms)" "top heap (MB)";
  Fmt.pr "---------+----------------+---------------@.";
  List.iter (fun (p, ms, mb) -> Fmt.pr "%8d | %14.1f | %14.1f@." p ms mb) high_p

(* --- E8c: compile time per pipeline pass -------------------------------------- *)

let e8c () =
  header "E8c: compile time per pipeline pass (dgefa n=32, mean of 20 runs)";
  let src = Fd_workloads.Dgefa.source ~n:32 () in
  Fmt.pr "%-18s" "pass";
  List.iter
    (fun s -> Fmt.pr " | %13s" (Options.strategy_name s))
    [ Options.Interproc; Options.Immediate; Options.Runtime_resolution ];
  Fmt.pr "@.-------------------+---------------+---------------+---------------@.";
  let iters = 20 in
  let mean_times strategy =
    (* mean wall-clock ms per pass over [iters] fresh pipeline runs *)
    let totals = Hashtbl.create 8 in
    for _ = 1 to iters do
      let opts = { Options.default with Options.strategy } in
      let report = Pipeline.run (Pipeline.of_source ~opts src) in
      List.iter
        (fun (e : Pass.entry) ->
          let prev = Option.value ~default:0.0 (Hashtbl.find_opt totals e.Pass.e_pass) in
          Hashtbl.replace totals e.Pass.e_pass (prev +. e.Pass.e_time))
        report
    done;
    fun pass ->
      Option.value ~default:0.0 (Hashtbl.find_opt totals pass)
      /. float_of_int iters *. 1e3
  in
  let per_strategy =
    List.map mean_times
      [ Options.Interproc; Options.Immediate; Options.Runtime_resolution ]
  in
  List.iter
    (fun pass ->
      Fmt.pr "%-18s" pass;
      List.iter (fun times -> Fmt.pr " | %10.3f ms" (times pass)) per_strategy;
      Fmt.pr "@.")
    Pipeline.pass_names

(* --- E9: dynamic remapping vs static distribution for ADI ------------------ *)

let e9 () =
  let n = if quick then 24 else 48 and t = if quick then 2 else 4 in
  header
    (Fmt.str
       "E9: ADI alternating sweeps - dynamic remapping vs static distribution (n=%d, t=%d, P=4)"
       n t);
  Fmt.pr "%-22s | %8s | %6s | %7s | %12s | %12s@." "variant" "messages" "bcasts"
    "remaps" "bytes moved" "elapsed (ms)";
  Fmt.pr "-----------------------+----------+--------+---------+--------------+-------------@.";
  List.iter
    (fun (name, src) ->
      let r = run src in
      Fmt.pr "%-22s | %8d | %6d | %7d | %12d | %12.3f@." name (msgs r) (bcasts r)
        r.Driver.stats.Stats.remaps r.Driver.stats.Stats.remap_bytes (ms r))
    [ ("dynamic (transpose)", Fd_workloads.Adi.dynamic ~n ~t ());
      ("static (fallback)", Fd_workloads.Adi.static_ ~n ~t ()) ];
  Fmt.pr
    "(with a static distribution the column recurrence runs along the@.\
    \ distributed dimension: the compiler falls back to per-element@.\
    \ run-time resolution for it - correct but element messages; remapping@.\
    \ between phases keeps both sweeps local at two transposes per step)@."

(* --- E10: communication-optimization ablations ------------------------------ *)

let e10 () =
  header "E10: ablations - broadcast recognition and message aggregation";
  Fmt.pr "%-34s | %8s | %6s | %12s@." "configuration" "messages" "bcasts"
    "elapsed (ms)";
  Fmt.pr "-----------------------------------+----------+--------+--------------@.";
  let dg = Fd_workloads.Dgefa.source ~n:(if quick then 16 else 32) () in
  let multi = Fd_workloads.Stencil.multi_array ~n:128 ~t:4 () in
  let show name opts src =
    let r = Driver.run_source ~opts src in
    if not (Driver.verified r) then failwith "E10 verification";
    Fmt.pr "%-34s | %8d | %6d | %12.3f@." name (msgs r) (bcasts r) (ms r)
  in
  show "dgefa: tree broadcasts" Options.default dg;
  show "dgefa: broadcasts as sends"
    { Options.default with Options.use_collectives = false }
    dg;
  show "multi-array stencil: aggregated" Options.default multi;
  show "multi-array stencil: unaggregated"
    { Options.default with Options.aggregate_messages = false }
    multi;
  Fmt.pr
    "(scalar pivot results always use the collective layer; the ablation@.\
    \ expands section broadcasts only, trading fewer collectives for P-1@.\
    \ point-to-point messages each)@."

(* --- E11: stencil suite across strategies ----------------------------------- *)

let e11 () =
  header "E11: stencil suite across strategies (P=4)";
  Fmt.pr "%-12s | %-18s | %8s | %6s | %12s@." "workload" "strategy" "messages"
    "bcasts" "elapsed (ms)";
  Fmt.pr "-------------+--------------------+----------+--------+--------------@.";
  let wls =
    [ ("jacobi1d", Fd_workloads.Stencil.jacobi1d ~n:256 ~t:10 ());
      ("jacobi2d", Fd_workloads.Stencil.jacobi2d ~n:32 ~t:4 ());
      ("redblack", Fd_workloads.Stencil.redblack ~n:256 ~t:8 ());
      ("multiarray", Fd_workloads.Stencil.multi_array ~n:256 ~t:8 ()) ]
  in
  List.iter
    (fun (name, src) ->
      List.iter
        (fun strategy ->
          let r = run ~strategy src in
          Fmt.pr "%-12s | %-18s | %8d | %6d | %12.3f@." name
            (Options.strategy_name strategy)
            (msgs r) (bcasts r) (ms r))
        [ Options.Interproc; Options.Immediate; Options.Runtime_resolution ])
    wls

(* --- E13: static verification vs full simulation ----------------------------- *)

let e13 () =
  let n = if quick then 16 else 64 in
  header
    (Fmt.str "E13: static verification (fdc check) vs full simulation (dgefa n=%d)" n);
  Fmt.pr "%6s | %10s | %7s | %7s | %8s | %12s | %8s@." "P" "check (ms)"
    "visits" "events" "findings" "simulate(ms)" "ratio";
  Fmt.pr "-------+------------+---------+---------+----------+--------------+---------@.";
  let src = Fd_workloads.Dgefa.source ~n () in
  let cp = Driver.check_source src in
  List.iter
    (fun p ->
      let opts = { Options.default with Options.nprocs = p } in
      let compiled = Driver.compile ~opts cp in
      let t0 = Unix.gettimeofday () in
      let vr = Fd_verify.Verify.check_node ~nprocs:p compiled.Codegen.program in
      let t_check = (Unix.gettimeofday () -. t0) *. 1e3 in
      let errors =
        List.length (Fd_verify.Finding.errors vr.Fd_verify.Verify.findings)
      in
      if errors > 0 then failwith "E13: static errors on a correct program";
      (* simulation cost is linear in P; past 64 procs on this kernel
         the row exists to show the check column staying flat *)
      if p <= 64 then begin
        let config = Driver.machine_config opts in
        let t1 = Unix.gettimeofday () in
        let _stats, _frames = Scheduler.run config compiled.Codegen.program in
        let t_sim = (Unix.gettimeofday () -. t1) *. 1e3 in
        Fmt.pr "%6d | %10.3f | %7d | %7d | %8d | %12.3f | %7.1fx@." p t_check
          vr.Fd_verify.Verify.visits vr.Fd_verify.Verify.events
          (List.length vr.Fd_verify.Verify.findings) t_sim
          (t_sim /. Float.max t_check 1e-6)
      end
      else
        Fmt.pr "%6d | %10.3f | %7d | %7d | %8d | %12s | %8s@." p t_check
          vr.Fd_verify.Verify.visits vr.Fd_verify.Verify.events
          (List.length vr.Fd_verify.Verify.findings) "-" "-")
    (if quick then [ 4; 64; 1024 ] else [ 4; 64; 1024; 65536 ]);
  Fmt.pr
    "(check walks all P processors abstractly over the compressed lane@.\
    \ domain and replays the interval skeleton; simulate is the@.\
    \ wall-clock cost of the full virtual-time simulation of@.\
    \ the same node program, omitted past P=64 where it is minutes)@."

(* --- E14: tracing overhead - ring buffer on vs off ---------------------------- *)

let e14 () =
  let n = if quick then 16 else 32 in
  let reps = if quick then 3 else 5 in
  header
    (Fmt.str "E14: tracing overhead - structured event ring on vs off (dgefa n=%d)" n);
  Fmt.pr "%4s | %12s | %12s | %8s | %10s@." "P" "off (ms)" "ring on (ms)"
    "overhead" "events";
  Fmt.pr "-----+--------------+--------------+----------+------------@.";
  let src = Fd_workloads.Dgefa.source ~n () in
  let cp = Driver.check_source src in
  List.iter
    (fun p ->
      let opts = { Options.default with Options.nprocs = p } in
      let compiled = Driver.compile ~opts cp in
      (* mean wall-clock over [reps] simulations, first rep as warmup *)
      let time config =
        let t = ref 0.0 in
        for rep = 0 to reps do
          let t0 = Unix.gettimeofday () in
          let _stats, _frames = Scheduler.run config compiled.Codegen.program in
          if rep > 0 then t := !t +. (Unix.gettimeofday () -. t0)
        done;
        !t /. float_of_int reps *. 1e3
      in
      let t_off = time (Config.make ~nprocs:p ()) in
      let tr = Fd_trace.Trace.create () in
      (* marking the freshly allocated ring is a one-off set-up cost that
         would otherwise land in the timed runs *)
      Gc.full_major ();
      let t_on =
        let config = Config.make ~nprocs:p ~trace:tr () in
        let t = time config in
        t
      in
      let events = Fd_trace.Trace.total tr / (reps + 1) in
      Fmt.pr "%4d | %12.3f | %12.3f | %+7.1f%% | %10d@." p t_off t_on
        ((t_on -. t_off) /. t_off *. 100.0)
        events)
    (if quick then [ 4 ] else [ 4; 16 ]);
  Fmt.pr
    "(the ring preallocates its event records: emission mutates a slot in@.\
    \ place, so enabling the trace adds no per-event allocation; with the@.\
    \ trace off each emission site is one load and branch)@."

(* --- E16: static cost prediction vs measured simulation ----------------------- *)

let e16 () =
  let n = if quick then 16 else 64 in
  header
    (Fmt.str
       "E16: static cost prediction (fdc cost) vs measured simulation (dgefa \
        n=%d)"
       n);
  Fmt.pr "%6s | %9s | %12s | %12s | %5s | %12s@." "P" "cost (ms)"
    "makespan(us)" "simulate(ms)" "exact" "counters";
  Fmt.pr "-------+-----------+--------------+--------------+-------+-------------@.";
  let src = Fd_workloads.Dgefa.source ~n () in
  let cp = Driver.check_source src in
  (* the sequential run is on demand: run it here, outside the timed
     analyses *)
  let profile = Fd_verify.Cost.profile_of_seq cp in
  Fd_verify.Cost.force_profile profile;
  List.iter
    (fun p ->
      let opts = { Options.default with Options.nprocs = p } in
      let compiled = Driver.compile ~opts cp in
      let config =
        { (Driver.machine_config opts) with Config.flop = 0.0; mem_op = 0.0 }
      in
      let t0 = Unix.gettimeofday () in
      let c =
        Fd_verify.Cost.analyze ~profile ~config compiled.Codegen.program
      in
      let t_cost = (Unix.gettimeofday () -. t0) *. 1e3 in
      (* the differential leg is linear in P; past 64 procs the row
         exists to show the prediction column staying flat *)
      if p <= 64 then begin
        let t1 = Unix.gettimeofday () in
        let failures = Driver.cost_oracle compiled c in
        let t_sim = (Unix.gettimeofday () -. t1) *. 1e3 in
        (match failures with f :: _ -> failwith ("E16: " ^ f) | [] -> ());
        Fmt.pr "%6d | %9.3f | %12.1f | %12.3f | %5b | %12s@." p t_cost
          (c.Fd_verify.Cost.makespan *. 1e6)
          t_sim c.Fd_verify.Cost.exact "identical"
      end
      else
        Fmt.pr "%6d | %9.3f | %12.1f | %12s | %5b | %12s@." p t_cost
          (c.Fd_verify.Cost.makespan *. 1e6)
          "-" c.Fd_verify.Cost.exact "-")
    (if quick then [ 4; 64; 1024 ] else [ 4; 64; 1024; 65536 ]);
  Fmt.pr
    "(cost replays the interval skeleton with affine per-group clocks under@.\
    \ the machine model, so the prediction is flat in P; the differential@.\
    \ leg simulates compute-free and checks every counter bit-identical@.\
    \ and the makespan exact, omitted past P=64 where it is minutes)@."

(* --- E18: check/cost replay under per-element messages ----------------------- *)

let e18 () =
  header "E18: fdc check and fdc cost under run-time resolution (per-element messages)";
  Fmt.pr "%-9s | %4s | %9s | %10s | %9s | %7s | %8s@." "program" "P"
    "walk (ms)" "check (ms)" "cost (ms)" "events" "messages";
  Fmt.pr
    "----------+------+-----------+------------+-----------+---------+---------@.";
  (* median wall-clock of three runs *)
  let time f =
    let runs =
      List.init 3 (fun _ ->
          let t0 = Unix.gettimeofday () in
          let r = f () in
          ((Unix.gettimeofday () -. t0) *. 1e3, r))
    in
    List.nth (List.sort (fun (a, _) (b, _) -> compare a b) runs) 1
  in
  List.iter
    (fun (name, src) ->
      let cp = Driver.check_source src in
      let profile = Fd_verify.Cost.profile_of_seq cp in
      Fd_verify.Cost.force_profile profile;
      List.iter
        (fun p ->
          let opts =
            { Options.default with
              Options.nprocs = p; strategy = Options.Runtime_resolution }
          in
          let prog = (Driver.compile ~opts cp).Codegen.program in
          let t_walk, _ =
            time (fun () -> Fd_verify.Absint.walk ~nprocs:p prog)
          in
          let t_check, vr =
            time (fun () -> Fd_verify.Verify.check_node ~nprocs:p prog)
          in
          if Fd_verify.Finding.errors vr.Fd_verify.Verify.findings <> [] then
            failwith "E18: static errors on a correct program";
          let config = Driver.machine_config opts in
          let t_cost, c =
            time (fun () -> Fd_verify.Cost.analyze ~profile ~config prog)
          in
          Fmt.pr "%-9s | %4d | %9.1f | %10.1f | %9.1f | %7d | %8d@." name p
            t_walk t_check t_cost vr.Fd_verify.Verify.events
            c.Fd_verify.Cost.messages)
        [ 4; 8; 16; 32; 64; 128; 256 ])
    [ ("fig4", Fd_workloads.Figures.fig4 ());
      ("jacobi2d", Fd_workloads.Stencil.jacobi2d ()) ];
  Fmt.pr
    "(walk = the abstract walk alone, check = walk + skeleton replay,@.\
    \ cost = its own walk + timed replay; run-time resolution sends one@.\
    \ message per element and guards each with an owner test, so replay@.\
    \ matching must stay linear in the messages in flight and the walk's@.\
    \ pid masks must not cost O(P))@."

(* --- E19: interpreter time on the run-compute kernels -------------------------- *)

(* The simulator and the sequential interpreter on the kernels of the
   perfbench run-compute workload (full sizes there, smaller with
   [quick]): best-of-k wall clock and the minor-heap words one run
   allocates, for each interpreter. *)
let e19 () =
  header "E19: simulator and sequential interpreter on the run-compute kernels";
  Fmt.pr "%-11s | %2s | %9s | %9s | %8s | %9s@." "program" "P" "sim (ms)" "sim (Mw)"
    "seq (ms)" "seq (Mw)";
  Fmt.pr "------------+----+-----------+-----------+----------+----------@.";
  let reps = if quick then 3 else 5 in
  (* best wall clock of [reps] runs, and the words one run allocates *)
  let measure f =
    let best = ref infinity and words = ref 0.0 in
    for _ = 1 to reps do
      let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
      f ();
      best := Float.min !best ((Unix.gettimeofday () -. t0) *. 1e3);
      words := Gc.minor_words () -. w0
    done;
    (!best, !words /. 1e6)
  in
  let sz q full = if quick then q else full in
  List.iter
    (fun (name, src) ->
      let cp = Driver.check_source src in
      List.iter
        (fun p ->
          let opts = { Options.default with Options.nprocs = p } in
          let prog = (Driver.compile ~opts cp).Codegen.program in
          let config = Driver.machine_config opts in
          let frames = ref [||] and seq = ref None in
          let t_sim, w_sim = measure (fun () -> frames := snd (Scheduler.run config prog)) in
          let t_seq, w_seq = measure (fun () -> seq := Some (Seq_interp.run ~config cp)) in
          if Gather.compare_results ~nprocs:p (Option.get !seq) !frames <> [] then
            failwith "E19: simulation differs from the sequential run";
          Fmt.pr "%-11s | %2d | %9.2f | %9.2f | %8.2f | %9.2f@." name p t_sim w_sim t_seq
            w_seq)
        [ 4; 8 ])
    [ ("dgefa", Fd_workloads.Dgefa.source ~n:(sz 24 48) ());
      ("jacobi2d", Fd_workloads.Stencil.jacobi2d ~n:(sz 32 64) ~t:(sz 4 10) ());
      ("fig15", Fd_workloads.Figures.fig15 ~n:(sz 512 2048) ~t:(sz 5 20) ());
      ("adi_dynamic", Fd_workloads.Adi.dynamic ~n:(sz 32 64) ~t:(sz 2 4) ());
      ("redblack", Fd_workloads.Stencil.redblack ~n:(sz 512 2048) ~t:(sz 4 8) ()) ];
  Fmt.pr
    "(interproc strategy; Mw = millions of minor-heap words one run@.\
    \ allocates; every row's final arrays are compared with the@.\
    \ sequential run)@."

(* --- E20: simulator storage, paged ----------------------------------------- *)

(* The cells of the perfbench run-comm workload, then jacobi1d and
   multi_array across P: (label, source, strategy, P). *)
let e20_cells =
  let j1 = Fd_workloads.Stencil.jacobi1d ~n:2048 ()
  and ma = Fd_workloads.Stencil.multi_array ~n:1024 () in
  [ ("dgefa n=24", Fd_workloads.Dgefa.source ~n:24 (), Options.Runtime_resolution, 16);
    ("dgefa n=24", Fd_workloads.Dgefa.source ~n:24 (), Options.Immediate, 16);
    ("jacobi2d n=24", Fd_workloads.Stencil.jacobi2d ~n:24 (), Options.Runtime_resolution, 16);
    ("jacobi2d n=24", Fd_workloads.Stencil.jacobi2d ~n:24 (), Options.Immediate, 16);
    ("fig4", Fd_workloads.Figures.fig4 (), Options.Immediate, 4);
    ("jacobi1d n=2048", j1, Options.Interproc, 256);
    ("multi_array n=1024", ma, Options.Interproc, 256) ]
  @ List.concat_map
      (fun p ->
        [ ("jacobi1d n=2048", j1, Options.Interproc, p);
          ("multi_array n=1024", ma, Options.Interproc, p) ])
      (if quick then [ 64; 1024 ] else [ 64; 1024; 4096 ])

(* One cell in this process, which runs nothing else: compile, simulate
   and verify, then print the top heap (words), the bytes of the pages
   the processors materialized, the bytes of every main-program array at
   full extent, and the CPU milliseconds. *)
let e20_cell k =
  let _, src, strategy, nprocs = List.nth e20_cells k in
  let t0 = Sys.time () in
  let r = run ~nprocs ~strategy src in
  let full =
    List.fold_left
      (fun acc (_, (o : Storage.array_obj)) -> acc + (o.Storage.size * ((Sys.word_size / 8) + 1)))
      0 r.Driver.seq.Seq_interp.arrays
  in
  Printf.printf "%d %d %d %.2f\n" (Gc.quick_stat ()).Gc.top_heap_words
    r.Driver.stats.Stats.storage_bytes full ((Sys.time () -. t0) *. 1e3)

(* Each cell in a fresh process of this executable, so the top heap is
   that cell's alone. *)
let e20 () =
  header "E20: simulator storage in pages (one cell per process)";
  Fmt.pr "%-18s | %-18s | %4s | %9s | %13s | %7s | %8s@." "program" "strategy" "P"
    "heap (MB)" "storage bytes" "pages" "cpu (ms)";
  Fmt.pr "-------------------+--------------------+------+-----------+---------------+---------+---------@.";
  List.iteri
    (fun k (label, _, strategy, nprocs) ->
      let args = [| Sys.executable_name; "e20-cell"; string_of_int k |] in
      let ic = Unix.open_process_args_in Sys.executable_name args in
      let line = input_line ic in
      if Unix.close_process_in ic <> Unix.WEXITED 0 then failwith "E20: a cell failed";
      Scanf.sscanf line "%d %d %d %f" (fun top used full cpu ->
          Fmt.pr "%-18s | %-18s | %4d | %9.2f | %13d | %6.1f%% | %8.1f@." label
            (Options.strategy_name strategy) nprocs
            (float_of_int (top * (Sys.word_size / 8)) /. 1048576.0)
            used
            (100.0 *. float_of_int used /. float_of_int (nprocs * full))
            cpu))
    e20_cells;
  Fmt.pr
    "(heap = the process's top heap; pages = storage bytes over P copies@.\
    \ of every main-program array at full extent, values and validity@.\
    \ bytes; each cell verified against the sequential run)@."

(* --- E22: the abstract walk per cell -------------------------------------------- *)

(* check-cost's runtime cells, and its two P = 1024 cells with the most
   walk visits: the walk alone (median of 15, no profile), its visits
   and minor words, and the cost replay with the sequential profile. *)
let e22 () =
  header "E22: the abstract walk per cell";
  let examples =
    Fd_workloads.
      [ ("fig1", Figures.fig1 ()); ("fig4", Figures.fig4 ()); ("fig15", Figures.fig15 ());
        ("jacobi1d", Stencil.jacobi1d ()); ("jacobi2d", Stencil.jacobi2d ());
        ("redblack", Stencil.redblack ()); ("multi_array", Stencil.multi_array ());
        ("dgefa", Dgefa.source ~n:8 ()); ("adi_dynamic", Adi.dynamic ());
        ("adi_static", Adi.static_ ()) ]
  in
  let cells =
    List.map (fun (e, src) -> (e, src, Options.Runtime_resolution, 8)) examples
    @ List.filter_map
        (fun (e, src) ->
          if e = "adi_static" || e = "redblack" then Some (e, src, Options.Interproc, 1024)
          else None)
        examples
  in
  let median_ms f =
    let ts =
      List.init 15 (fun _ ->
          let t = Unix.gettimeofday () in
          ignore (f ());
          Unix.gettimeofday () -. t)
    in
    List.nth (List.sort compare ts) 7 *. 1e3
  in
  Fmt.pr "%-12s | %-18s | %4s | %9s | %7s | %8s | %12s@." "program" "strategy" "P"
    "walk (ms)" "visits" "words (M)" "cost (ms)";
  Fmt.pr "-------------+--------------------+------+-----------+---------+----------+-------------@.";
  List.iter
    (fun (e, src, strategy, nprocs) ->
      let opts = { Options.default with Options.nprocs; strategy } in
      let cp = Driver.check_source src in
      let prog = (Driver.compile ~opts cp).Codegen.program in
      let w0 = Gc.minor_words () in
      let r = Fd_verify.Absint.walk ~nprocs prog in
      let words = Gc.minor_words () -. w0 in
      let walk_ms = median_ms (fun () -> Fd_verify.Absint.walk ~nprocs prog) in
      let profile = Fd_verify.Cost.profile_of_seq cp in
      Fd_verify.Cost.force_profile profile;
      let config = Driver.machine_config opts in
      let cost_ms = median_ms (fun () -> Fd_verify.Cost.analyze ~profile ~config prog) in
      Fmt.pr "%-12s | %-18s | %4d | %9.2f | %7d | %8.2f | %12.2f@." e
        (Options.strategy_name strategy) nprocs walk_ms r.Fd_verify.Absint.visits
        (words /. 1e6) cost_ms)
    cells

let () =
  match Array.to_list Sys.argv with
  | _ :: "e20-cell" :: k :: _ -> e20_cell (int_of_string k)
  | argv when List.mem "e20" argv -> e20 ()
  | argv when List.mem "e22" argv -> e22 ()
  | _ ->
  let high_p = e8_high_p_measure () in
  Fmt.pr "Fortran D interprocedural compilation - experiment tables@.";
  Fmt.pr "(machine model: %a)@." Config.pp (Config.ipsc860 ~nprocs:4 ());
  e1 ();
  e2 ();
  e3 ();
  e4 ();
  e5 ();
  e6 ();
  e7 ();
  e8 high_p;
  e8c ();
  e9 ();
  e10 ();
  e11 ();
  e13 ();
  e14 ();
  e16 ();
  e18 ();
  e19 ();
  e20 ();
  Fmt.pr "@.all experiments verified against sequential execution.@."
