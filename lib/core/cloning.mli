(** Procedure cloning for reaching decompositions (paper Section 5.2,
    Figure 8): call sites are partitioned so that all calls in one class
    provide the same (Appear-filtered) decompositions; each class gets
    its own clone, giving every array a unique reaching decomposition
    inside each procedure body.  Runs after the ACG, reaching
    decompositions and side effects, on the checked program: a clone
    shares its original's symbol table and gets fresh statement ids. *)

open Fd_frontend
open Fd_callgraph

module SM : Map.S with type key = string and type 'a t = 'a Map.Make(String).t

type result = {
  cp : Sema.checked_program;  (** the cloned program *)
  origin : string SM.t;       (** clone name -> original procedure name *)
  clones_made : int;
  acg : Acg.t;
  rd : Reaching_decomps.t;
  effects : Side_effects.t;
}
(** [acg], [rd] and [effects] are the analyses of [cp]: those given to
    {!apply}, unless a procedure split. *)

val clone_limit : int
(** A procedure whose call sites need more clones than this keeps one
    version, with a warning. *)

val apply :
  sink:Fd_support.Diag.sink -> Sema.checked_program -> acg:Acg.t ->
  rd:Reaching_decomps.t -> effects:Side_effects.t -> result
(** Splits procedures callers first, rebuilding the analyses after each
    split. *)

val origin_of : result -> string -> string
