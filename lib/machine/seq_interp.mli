(** Sequential reference interpreter for checked mini-Fortran-D programs.
    ALIGN/DISTRIBUTE are no-ops; arrays are global.  Ground truth for
    verifying compiled SPMD executions, and the one-processor time
    estimate. *)

open Fd_frontend

type result = {
  arrays : (string * Storage.array_obj) list;  (** main-program arrays *)
  outputs : string list;
  flops : int;
  mem_ops : int;
  seq_time : float;  (** estimated sequential execution time *)
}

val run :
  ?config:Config.t ->
  ?on_branch:(Fd_support.Loc.t -> bool -> unit) ->
  Sema.checked_program ->
  result
(** [on_branch] observes every source-IF decision as [(loc, taken)],
    keyed by the IF statement's location.  The static cost analyzer uses
    the aggregated profile to assign execution multiplicities to
    unverifiable regions (see [Fd_verify.Absint.walk]). *)
