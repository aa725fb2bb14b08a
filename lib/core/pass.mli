(** The pass-manager substrate: a shared pipeline context threaded
    through the compiler's interprocedural phases, plus the typed
    description of one pass (name, run function, artifact
    pretty-printer, invariant checker, size metric).

    The compiler's phases — parse, semantic checking,
    augmented-call-graph construction, reaching decompositions, side
    effects, procedure cloning, local summaries, code generation — each
    populate one field of {!ctx}; cloning replaces the three analyses
    with those of the cloned program when it splits a procedure.  A pass's [p_run] is idempotent: it does nothing when its
    artifact is already present, which is how contexts seeded from a
    {!Fd_frontend.Sema.checked_program} skip the frontend passes.

    {!Pipeline} owns the standard pass list and the runner. *)

open Fd_frontend
open Fd_callgraph

type ctx = {
  opts : Options.t;
  sink : Fd_support.Diag.sink;
      (** per-run diagnostic sink: frontend passes accumulate (recovered)
          errors here before [sema] raises them as one batch; backend
          passes record warnings *)
  file : string option;
  source : string option;  (** absent when seeded from a checked program *)
  mutable parsed : Ast.program option;
  mutable checked : Sema.checked_program option;
  mutable clone_result : Cloning.result option;
  mutable acg : Acg.t option;
  mutable rd : Reaching_decomps.t option;
  mutable effects : Side_effects.t option;
  mutable summaries : (string * Local_summary.t) list option;
      (** one local summary per (cloned) procedure, in ACG order *)
  mutable compiled : Codegen.compiled option;
}

(** Result of a pass's invariant checker in a {!report}. *)
type status =
  | I_not_checked  (** the run did not request verification *)
  | I_ok
  | I_violated of string list  (** human-readable violation messages *)

type entry = {
  e_pass : string;
  e_time : float;  (** wall-clock seconds spent in the pass's run *)
  e_size : int;    (** pass-specific artifact size metric *)
  e_status : status;
}

type report = entry list
(** One entry per executed pass, in execution order. *)

type t = {
  p_name : string;
  p_run : ctx -> unit;
  p_dump : ctx -> string option;
      (** render the pass's artifact; [None] when it is not present *)
  p_verify : ctx -> string list;
      (** invariant violations over the current context; [[]] = ok *)
  p_size : ctx -> int;
}

(** {2 Artifact accessors}

    Each raises {!Fd_support.Diag.Compile_error} naming the missing pass
    when the artifact has not been produced yet. *)

val get_parsed : ctx -> Ast.program
val get_checked : ctx -> Sema.checked_program
val get_clone_result : ctx -> Cloning.result
val get_acg : ctx -> Acg.t
val get_rd : ctx -> Reaching_decomps.t
val get_effects : ctx -> Side_effects.t
val get_summaries : ctx -> (string * Local_summary.t) list
val get_compiled : ctx -> Codegen.compiled

val report_ok : report -> bool
(** No entry is [I_violated]. *)

val violations : report -> (string * string) list
(** All (pass, message) violation pairs, in report order. *)

val pp_entry : Format.formatter -> entry -> unit
