(* Top-level driver: the Pipeline passes (parse -> check ->
   interprocedural compile) followed by simulation and verification
   against the sequential reference execution. *)

open Fd_frontend
open Fd_machine

type run_result = {
  stats : Stats.t;
  mismatches : Gather.mismatch list;
  outputs_match : bool;  (* captured PRINT lines equal the sequential run's *)
  seq : Seq_interp.result;
  compiled : Codegen.compiled;
  report : Pass.report;
  partial : string option;
  (* budget-exhaustion reason: the simulation stopped early, [stats] is a
     prefix, and the sequential comparison was skipped *)
}

let check_source ?file ?sink src = Sema.check_source ?file ?sink src

let compile_ctx ?(verify = false) ?tracer (ctx : Pass.ctx) :
    Codegen.compiled * Pass.report =
  let report = Pipeline.run ~verify ?tracer ctx in
  (match Pass.violations report with
  | [] -> ()
  | (pass, msg) :: _ -> Fd_support.Diag.error "pass %s: %s" pass msg);
  (Pass.get_compiled ctx, report)

let compile ?sink ?(opts = Options.default) (cp : Sema.checked_program) :
    Codegen.compiled =
  fst (compile_ctx (Pipeline.of_checked ?sink ~opts cp))

let compile_source ?sink ?(opts = Options.default) ?file src =
  fst (compile_ctx (Pipeline.of_source ?sink ~opts ?file src))

let machine_config ?(machine : Config.t option) (opts : Options.t) : Config.t =
  match machine with
  | Some m -> { m with Config.nprocs = opts.Options.nprocs }
  | None -> Config.ipsc860 ~nprocs:opts.Options.nprocs ()

(* Simulate an already-compiled program; verifies final array contents
   and captured output against the sequential interpreter. *)
let run_compiled ?machine ?budget ~(opts : Options.t) ~(report : Pass.report)
    (cp : Sema.checked_program) (compiled : Codegen.compiled) : run_result =
  let config = machine_config ?machine opts in
  let p = Scheduler.run_partial ?budget config compiled.Codegen.program in
  match p.Scheduler.p_frames with
  | Some frames ->
    let seq = Seq_interp.run ~config cp in
    let mismatches =
      Gather.compare_results ~nprocs:opts.Options.nprocs seq frames
    in
    let outputs_match =
      Stats.outputs p.Scheduler.p_stats = seq.Seq_interp.outputs
    in
    { stats = p.Scheduler.p_stats; mismatches; outputs_match; seq; compiled;
      report; partial = p.Scheduler.p_exhausted }
  | None ->
    (* budget exhausted mid-simulation: report the stats prefix and skip
       the sequential comparison (no final frames to compare) *)
    let seq =
      { Seq_interp.arrays = []; outputs = []; flops = 0; mem_ops = 0;
        seq_time = 0. }
    in
    { stats = p.Scheduler.p_stats; mismatches = []; outputs_match = true; seq;
      compiled; report; partial = p.Scheduler.p_exhausted }

let run ?sink ?(opts = Options.default) ?machine ?(verify = false) ?tracer
    ?budget (cp : Sema.checked_program) : run_result =
  let compiled, report =
    compile_ctx ~verify ?tracer (Pipeline.of_checked ?sink ~opts cp)
  in
  run_compiled ?machine ?budget ~opts ~report cp compiled

(* [sema] raises the frontend's errors: a run never compiles past them. *)
let run_source ?(sink = Fd_support.Diag.sink ()) ?(opts = Options.default) ?machine
    ?(verify = false) ?tracer ?budget ?file src =
  let ctx = Pipeline.of_source ~sink ~opts ?file src in
  let compiled, report = compile_ctx ~verify ?tracer ctx in
  run_compiled ?machine ?budget ~opts ~report (Pass.get_checked ctx) compiled

let verified r = r.mismatches = [] && r.outputs_match

(* Parallel-vs-sequential elapsed-time speedup estimate. *)
let speedup r = r.seq.Seq_interp.seq_time /. Stats.elapsed r.stats
