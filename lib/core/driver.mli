(** Top-level driver: the {!Pipeline} passes (parse -> check ->
    interprocedural compile) followed by simulation and verification
    against the sequential reference execution. *)

open Fd_frontend
open Fd_machine

type run_result = {
  stats : Stats.t;
  mismatches : Gather.mismatch list;
  outputs_match : bool;
      (** captured PRINT lines equal the sequential run's *)
  seq : Seq_interp.result;
  compiled : Codegen.compiled;
  report : Pass.report;
      (** per-pass wall-clock time, artifact sizes and (when requested)
          invariant results for the compile *)
  partial : string option;
      (** budget-exhaustion reason: when set, the simulation stopped
          early, [stats] is a prefix, and the sequential comparison was
          skipped ([mismatches = []], [outputs_match = true], [seq]
          empty) *)
}

val check_source :
  ?file:string -> ?sink:Fd_support.Diag.sink -> string -> Sema.checked_program

val compile :
  ?sink:Fd_support.Diag.sink -> ?opts:Options.t -> Sema.checked_program ->
  Codegen.compiled

val compile_source :
  ?sink:Fd_support.Diag.sink -> ?opts:Options.t -> ?file:string -> string ->
  Codegen.compiled

val clone :
  ?sink:Fd_support.Diag.sink -> ?opts:Options.t -> Sema.checked_program ->
  Cloning.result
(** The passes up to cloning, without compiling: the cloned program and
    its analyses. *)

val machine_config : ?machine:Config.t -> Options.t -> Config.t

val check :
  ?budget:Fd_support.Budget.t -> ?src:string -> Sema.checked_program ->
  Codegen.compiled -> Fd_verify.Verify.result * string list
(** [fdc check]: the source lint of [cp] (its use-before-placement query
    answered from [compiled]'s reaching decompositions), then the
    verifier's abstract walk and skeleton replay of the node program
    under [budget].  The result's findings are both, merged and sorted.
    With [src], the source's [!break] directives are applied to the node
    program first; the second component lists those that did not
    apply. *)

val cost :
  ?profile:bool -> Sema.checked_program -> Codegen.compiled -> Fd_verify.Cost.t
(** [fdc cost]: {!Fd_verify.Cost.analyze} of the node program under
    {!machine_config}, with the sequential branch profile of [cp] unless
    [~profile:false]. *)

val run :
  ?sink:Fd_support.Diag.sink -> ?opts:Options.t -> ?machine:Config.t ->
  ?verify:bool -> ?tracer:Fd_trace.Trace.t -> ?budget:Fd_support.Budget.t ->
  Sema.checked_program -> run_result
(** Compile, simulate, and compare final array contents and captured
    output against the sequential interpreter.  [verify] additionally
    runs every pass's invariant checker during the compile.  [tracer]
    collects compiler pass spans; to also collect machine events, pass a
    [machine] config whose [trace] field holds the same trace. *)

val run_source :
  ?sink:Fd_support.Diag.sink -> ?opts:Options.t -> ?machine:Config.t ->
  ?verify:bool -> ?tracer:Fd_trace.Trace.t -> ?budget:Fd_support.Budget.t ->
  ?file:string -> string -> run_result

val verified : run_result -> bool
(** No array mismatches and identical PRINT output. *)

val speedup : run_result -> float
(** Estimated sequential time divided by simulated parallel makespan. *)
