(** Aliasing restrictions (paper Section 6.4).

    Aliases arise through parameter passing (one array bound to several
    formals) and through COMMON (a COMMON array passed as an actual to a
    procedure that also touches it through the block).  Fortran D
    disallows dynamic data decomposition
    of aliased variables: this pass rejects programs that pass one array
    to several formals of a procedure that (transitively) redistributes
    any of them, and warns when aliased formals are both modified. *)

open Fd_callgraph

type alias_site = {
  al_caller : string;
  al_callee : string;
  al_array : string;          (** the caller-side array *)
  al_formals : string list;   (** the >= 2 formals bound to it *)
  al_loc : Fd_support.Loc.t;
}

val alias_sites : Acg.t -> alias_site list

val check :
  sink:Fd_support.Diag.sink -> Acg.t -> Side_effects.t -> alias_site list
(** @raise Fd_support.Diag.Compile_error on the forbidden
    aliasing + redistribution combination. *)
