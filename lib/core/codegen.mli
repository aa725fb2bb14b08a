(** Interprocedural code generation (paper Section 5, Figures 9/11/13/17).

    Procedures are compiled exactly once, in reverse topological order
    over the augmented call graph.  Each compilation consumes the exports
    of its callees (computation-partition constraints, delayed
    communication, delayed remapping) and produces its own export record
    for callers.  The [Interproc] and [Immediate] strategies share this
    module; statements outside the recognized patterns fall back to
    run-time resolution locally, which is always sound. *)

open Fd_callgraph
open Fd_machine

type partition
(** A loop's computation partition: replicated, or partitioned over a
    layout dimension. *)

type decision = {
  d_proc : string;
  d_sid : int;  (** the DO statement *)
  d_var : string;  (** its index variable *)
  d_part : partition;
}
(** One DO loop's partition decision. *)

type shift = { sh_proc : string; sh_array : string; sh_dim : int; sh_offset : int }
(** A shift read [A(v+c)] in [sh_proc] on [A]'s distributed dimension
    [sh_dim] (0-based) that needs nonlocal data under its loop's
    owner-computes partition.  Its message is placed, exported to the
    callers, or left to run-time resolution, which fetches the same
    elements.  It is recorded when its statement's messages are first
    computed under a key ({!msg_key}), whether a legality trial or the
    communication pass asked: a trial that rejects its loop's partition
    still records the shifts the replicated loop's run-time resolution
    fetches.  Recording one consumes no tag or site number. *)

type msg_key = {
  mk_proc : string;
  mk_sid : int;  (** the statement *)
  mk_parts : partition list;
      (** the partitions of its enclosing loops, outermost first *)
  mk_constraint : Exports.constraint_;  (** the procedure's owner constraint *)
}
(** What a statement's messages are computed under.  Each key's
    messages are computed once per compile. *)

type msg_work = { mutable evaluated : msg_key list; mutable reused : msg_key list }
(** The keys whose messages were computed, and those whose messages
    were reused, both newest first: partition legality's trials and the
    communication pass share one computation per key. *)

type state = {
  opts : Options.t;
  sink : Fd_support.Diag.sink;  (** per-run diagnostics (warnings) *)
  acg : Acg.t;
  rd : Reaching_decomps.t;
  effects : Side_effects.t;
  mutable counter : int;  (** fresh communication tags / sites *)
  exports : (string, Exports.t) Hashtbl.t;
  mutable decisions : decision list;
      (** every loop's partition decision, newest first *)
  mutable shifts : shift list;
      (** every such shift, newest first, possibly repeated when
          statements or keys differ *)
  pseudo_sids : Dynamic_decomp.sids;
      (** statement ids of this compile's [remap$] pseudo-statements *)
  flow : Fd_analysis.Dataflow.work;
      (** nodes and visits of this compile's dataflow solves: dead and
          redundant remaps, and scalar liveness *)
  msgs : msg_work;  (** this compile's message computations and reuses *)
  mutable must_reach : string list;
      (** compiled procedures an owner guard may not skip: they print or
          remap, themselves or through a callee *)
  remapped : (string, Side_effects.S.t) Hashtbl.t;
      (** interface names each compiled procedure remaps, itself or
          through a callee, under either compiling strategy *)
}

val export_of : state -> string -> Exports.t

type compiled = {
  program : Node.program;
  clone_result : Cloning.result;
  state : state;
}

val decisions : compiled -> decision list
(** Every loop's partition decision, in compilation order. *)

val pp_decision : decision Fmt.t
(** The decision as [fdc partition] prints it, after the procedure
    name: the loop, then "replicated", the partitioned array and
    dimension with each processor's iteration set, or the symbolic
    layout. *)

val compile_analyzed : sink:Fd_support.Diag.sink -> Options.t -> Cloning.result -> compiled
(** Per-procedure code generation over the cloned program and its
    analyses (the final pipeline pass): aliasing check, then one pass
    per procedure in reverse topological order.
    @raise Fd_support.Diag.Compile_error on forbidden aliasing or
    uninstantiable computation partitions. *)
