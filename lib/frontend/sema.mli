(** Semantic analysis: builds per-unit symbol tables, resolves
    [ident(args)] into array references vs. intrinsic applications, folds
    PARAMETER constants, and type/shape-checks the whole program.

    All checks {e recover}: each diagnostic is recorded into a per-run
    {!Fd_support.Diag.sink} and analysis continues with a benign
    fallback, so one pass reports every semantic error.  Without an
    explicit sink, [check]/[check_source] raise the accumulated batch
    as {!Fd_support.Diag.Compile_errors} — callers never receive an
    ill-typed program. *)

type checked_unit = { unit_ : Ast.punit; symtab : Symtab.t }

type checked_program = {
  units : checked_unit list;
  main : string;  (** name of the main program unit *)
}

val find_unit : checked_program -> string -> checked_unit option
val find_unit_exn : checked_program -> string -> checked_unit

val check :
  ?file:string -> ?sink:Fd_support.Diag.sink -> Ast.program -> checked_program
(** With [?sink], record diagnostics and return the best-effort result
    (the caller decides when to fail); without, raise
    {!Fd_support.Diag.Compile_errors} if any error was found. *)

val check_source : ?file:string -> ?sink:Fd_support.Diag.sink -> string -> checked_program
(** Parse and check in one step, accumulating parse {e and} sema
    diagnostics into one batch. *)
