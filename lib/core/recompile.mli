(** Recompilation analysis (paper Section 8): after an edit, only
    procedures whose interprocedural *inputs* changed are recompiled —
    their own source, the decompositions reaching them, and each callee's
    caller-visible export and interface. *)

val after_edit :
  ?sink:Fd_support.Diag.sink -> before:string -> after:string -> unit -> string list * int
(** Procedures to recompile after replacing the program text, plus the
    total procedure count. *)
