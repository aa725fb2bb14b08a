(** Source-level Fortran D placement lints on the checked AST:
    decompositions never distributed, distributions that reach no
    array, references before any placement reaches them, and remaps
    provably identical to the placement already reaching them. *)

type reaching_hook = uname:string -> sid:int -> string -> bool
(** [reaching ~uname ~sid array]: whether any decomposition reaches
    [array] before statement [sid] of unit [uname]. *)

val run : ?reaching:reaching_hook -> Fd_frontend.Sema.checked_program -> Finding.t list
(** Without [?reaching] the use-before-placement lint is skipped. *)
