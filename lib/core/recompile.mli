(** Recompilation analysis (paper Section 8): after an edit, only
    procedures whose interprocedural *inputs* changed are recompiled —
    their own source, the decompositions reaching them, and each callee's
    caller-visible export and interface. *)

open Fd_frontend

module SM : Map.S with type key = string and type 'a t = 'a Map.Make(String).t

type artifacts = {
  a_source : string SM.t;      (** proc -> source digest *)
  a_interface : string SM.t;   (** proc -> interface digest *)
  a_reaching : string SM.t;    (** proc -> Reaching(P) digest *)
  a_export : string SM.t;      (** proc -> export-record digest *)
  a_callees : string list SM.t;
}

val artifacts :
  ?sink:Fd_support.Diag.sink -> ?opts:Options.t -> Sema.checked_program -> artifacts
(** Compiles the program and digests every per-procedure input (clones
    fold back into their original procedure).  Compiler warnings go to
    [sink] (default: a fresh one). *)

val procs_of : artifacts -> string list

val must_recompile : old_:artifacts -> new_:artifacts -> string list

val after_edit :
  ?sink:Fd_support.Diag.sink -> ?opts:Options.t -> before:string -> after:string ->
  unit ->
  string list * int
(** Procedures to recompile after replacing the program text, plus the
    total procedure count. *)
