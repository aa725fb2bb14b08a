(** Aliasing restrictions (paper Section 6.4).

    Aliases arise through parameter passing (one array bound to several
    formals) and through COMMON (a COMMON array passed as an actual to a
    procedure that also touches it through the block).  Fortran D
    disallows dynamic data decomposition
    of aliased variables: this pass rejects programs that pass one array
    to several formals of a procedure that (transitively) redistributes
    any of them, and warns when aliased formals are both modified. *)

open Fd_callgraph

val check : sink:Fd_support.Diag.sink -> Acg.t -> Side_effects.t -> unit
(** @raise Fd_support.Diag.Compile_error on the forbidden
    aliasing + redistribution combination. *)
