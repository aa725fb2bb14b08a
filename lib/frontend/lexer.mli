(** Hand-written lexer for mini-Fortran D.

    Free-form source: case-insensitive keywords and identifiers, [!]
    comments to end of line, [&] at end of line continues the statement,
    [;] acts as a statement separator.  Identifiers may contain [$]
    (compiler-generated names like [my$p] are legal source).  Dotted
    operators ([.eq.], [.and.], [.true.], ...) and symbolic spellings
    ([==], [<=], [/=], [<>]) are both accepted.

    Error handling: without a sink, malformed input raises
    {!Fd_support.Diag.Compile_error} at the first error.  With
    [?sink], lexical errors are {e recorded} (at most one per source
    line, to damp cascades) and the lexer resynchronizes and keeps
    producing tokens — the stream is always [EOF]-terminated. *)

val tokenize_sp :
  ?file:string ->
  ?sink:Fd_support.Diag.sink ->
  string ->
  (Fd_support.Loc.t * Fd_support.Loc.t * Token.t) list
(** Spanned token stream.  With [?sink], recovers from lexical errors
    (recording them) instead of raising. *)
