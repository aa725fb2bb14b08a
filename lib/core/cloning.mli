(** Procedure cloning for reaching decompositions (paper Section 5.2,
    Figure 8): call sites are partitioned so that all calls in one class
    provide the same (Appear-filtered) decompositions; each class gets
    its own clone, giving every array a unique reaching decomposition
    inside each procedure body.  Clones are materialized
    source-to-source and the program is re-checked, which renumbers
    statement ids consistently. *)

open Fd_frontend

module SM : Map.S with type key = string and type 'a t = 'a Map.Make(String).t

type result = {
  cp : Sema.checked_program;  (** the cloned program *)
  origin : string SM.t;       (** clone name -> original procedure name *)
  clones_made : int;
}

val apply : sink:Fd_support.Diag.sink -> Options.t -> Sema.checked_program -> result
(** Iterates (callers before callees) to a fixed point; respects
    [clone_limit]. *)

val origin_of : result -> string -> string
