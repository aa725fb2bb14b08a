(** Recursive-descent parser for mini-Fortran D.

    One statement per logical line; [ident(args)] parses as {!Ast.Ref}
    and {!Sema} later rewrites intrinsic applications to {!Ast.Funcall};
    [elseif] chains desugar to nested IFs.  Statement ids are assigned in
    textual order (outer statements before their bodies).

    The parser {e recovers} from syntax errors: a failed statement is
    skipped to the next line, a failed unit header to the next
    PROGRAM/SUBROUTINE, so one parse reports every reachable error with
    a precise span. *)

val parse : ?file:string -> ?sink:Fd_support.Diag.sink -> string -> Ast.program
(** Parse a whole source file (one or more program units), recovering
    at statement/unit boundaries.

    With [?sink], syntax (and lexical) errors are recorded there and
    the best-effort AST of the error-free parts is returned; the caller
    decides when to fail (e.g. {!Fd_support.Diag.raise_if_errors}).
    Without a sink, any errors are raised at the end of the parse as a
    single {!Fd_support.Diag.Compile_errors} batch. *)
