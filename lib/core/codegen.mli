(** Interprocedural code generation (paper Section 5, Figures 9/11/13/17).

    Procedures are compiled exactly once, in reverse topological order
    over the augmented call graph.  Each compilation consumes the exports
    of its callees (computation-partition constraints, delayed
    communication, delayed remapping) and produces its own export record
    for callers.  The [Interproc] and [Immediate] strategies share this
    module; statements outside the recognized patterns fall back to
    run-time resolution locally, which is always sound. *)

open Fd_frontend
open Fd_callgraph
open Fd_machine

type state = {
  opts : Options.t;
  sink : Fd_support.Diag.sink;  (** per-run diagnostics (warnings) *)
  acg : Acg.t;
  rd : Reaching_decomps.t;
  effects : Side_effects.t;
  mutable counter : int;  (** fresh communication tags / sites *)
  exports : (string, Exports.t) Hashtbl.t;
  mutable partition_log : (string * string) list;
      (** (procedure, loop-partition decision), in compilation order *)
  pseudo_sids : Dynamic_decomp.sids;
      (** statement ids of this compile's [remap$] pseudo-statements *)
}

val export_of : state -> string -> Exports.t

type compiled = {
  program : Node.program;
  clone_result : Cloning.result;
  state : state;
}

val clone :
  sink:Fd_support.Diag.sink -> Options.t -> Sema.checked_program -> Cloning.result
(** The cloning phase: {!Cloning.apply} for the optimizing strategies, a
    trivial (identity) result under [Runtime_resolution]. *)

val build_acg : Sema.checked_program -> Acg.t
(** Build the augmented call graph of the (cloned) program.
    @raise Fd_support.Diag.Compile_error on recursion. *)

val compile_analyzed :
  sink:Fd_support.Diag.sink ->
  Options.t ->
  clone_result:Cloning.result ->
  acg:Acg.t ->
  rd:Reaching_decomps.t ->
  effects:Side_effects.t ->
  compiled
(** Per-procedure code generation over already-computed analyses (the
    final pipeline pass): aliasing check, then one pass per procedure in
    reverse topological order.
    @raise Fd_support.Diag.Compile_error on forbidden aliasing or
    uninstantiable computation partitions. *)
