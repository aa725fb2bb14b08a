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

let clone ?sink ?(opts = Options.default) (cp : Sema.checked_program) =
  let ctx = Pipeline.of_checked ?sink ~opts cp in
  let rec upto = function
    | (p : Pass.t) :: rest ->
      ignore (Pipeline.run_pass p ctx);
      if p.Pass.p_name <> "cloning" then upto rest
    | [] -> ()
  in
  upto Pipeline.passes;
  Pass.get_clone_result ctx

let machine_config ?(machine : Config.t option) (opts : Options.t) : Config.t =
  match machine with
  | Some m -> { m with Config.nprocs = opts.Options.nprocs }
  | None -> Config.ipsc860 ~nprocs:opts.Options.nprocs ()

(* The source lint's query "does a decomposition reach [array] before
   statement [sid] of [uname]", answered from the compile's own reaching
   decompositions.  Every reachable statement's fact maps each declared
   array, so an array with no entry marks an unreachable statement,
   which counts as reached.  A procedure the compile does not know
   (renamed by cloning) is answered the same way. *)
let reaching_query (compiled : Codegen.compiled) ~uname ~sid array =
  match Reaching_decomps.local_of compiled.Codegen.state.Codegen.rd uname with
  | lr -> (
    match
      Reaching_decomps.SM.find_opt array (Reaching_decomps.fact_before lr sid)
    with
    | None -> true
    | Some r -> not (Decomp.reaching_equal r Decomp.reaching_bottom))
  | exception Fd_support.Diag.Compile_error _ -> true

let check ?budget ?src (cp : Sema.checked_program) (compiled : Codegen.compiled)
    : Fd_verify.Verify.result * string list =
  let prog, unapplied =
    match src with
    | Some src ->
      Fd_verify.Break.apply compiled.Codegen.program (Fd_verify.Break.scan src)
    | None -> (compiled.Codegen.program, [])
  in
  let lint = Fd_verify.Lint.run ~reaching:(reaching_query compiled) cp in
  let vr =
    Fd_verify.Verify.check_node ?budget
      ~nprocs:compiled.Codegen.state.Codegen.opts.Options.nprocs prog
  in
  ( { vr with
      Fd_verify.Verify.findings =
        Fd_verify.Finding.sort (lint @ vr.Fd_verify.Verify.findings) },
    unapplied )

let cost ?(profile = true) (cp : Sema.checked_program)
    (compiled : Codegen.compiled) : Fd_verify.Cost.t =
  let profile =
    if profile then Some (Fd_verify.Cost.profile_of_seq cp) else None
  in
  Fd_verify.Cost.analyze ?profile
    ~config:(machine_config compiled.Codegen.state.Codegen.opts)
    compiled.Codegen.program

let cost_disagreements (c : Fd_verify.Cost.t) (stats : Stats.t) : string list =
  let cmp what pred sim =
    if pred = sim then [] else [ Fmt.str "%s: predicted %d, simulated %d" what pred sim ]
  in
  let mk = Stats.elapsed stats in
  cmp "messages" c.Fd_verify.Cost.messages stats.Stats.messages
  @ cmp "message_bytes" c.Fd_verify.Cost.message_bytes stats.Stats.message_bytes
  @ cmp "bcasts" c.Fd_verify.Cost.bcasts stats.Stats.bcasts
  @ cmp "bcast_bytes" c.Fd_verify.Cost.bcast_bytes stats.Stats.bcast_bytes
  @ cmp "remaps" c.Fd_verify.Cost.remaps stats.Stats.remaps
  @ cmp "remap_marks" c.Fd_verify.Cost.remap_marks stats.Stats.remap_marks
  @ cmp "remap_bytes" c.Fd_verify.Cost.remap_bytes stats.Stats.remap_bytes
  @
  if c.Fd_verify.Cost.exact && Float.abs (c.Fd_verify.Cost.makespan -. mk) > 1e-9 *. Float.max 1.0 mk
  then [ Fmt.str "makespan: predicted %.9fs, simulated %.9fs" c.Fd_verify.Cost.makespan mk ]
  else []

let cost_oracle (compiled : Codegen.compiled) (c : Fd_verify.Cost.t) : string list =
  let config = machine_config compiled.Codegen.state.Codegen.opts in
  let stats, _ =
    Scheduler.run { config with Config.flop = 0.0; mem_op = 0.0 } compiled.Codegen.program
  in
  cost_disagreements c stats

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
