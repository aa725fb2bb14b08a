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

type t
(** A cursor over one source: it holds the current token and that
    token's span, and moves forward one token per {!step}.  Nothing is
    buffered; a parser pulls the tokens as it goes. *)

val make : ?file:string -> ?sink:Fd_support.Diag.sink -> string -> t
(** Open a cursor on the first token of the source. *)

val token : t -> Token.t
(** The current token; [EOF] once the source is exhausted. *)

val step : t -> unit
(** Move to the next token.  At [EOF] the cursor stays put. *)

val start_loc : t -> Fd_support.Loc.t
(** Where the current token starts. *)

val end_loc : t -> Fd_support.Loc.t
(** Where the current token ends (exclusive column).  [NEWLINE] and
    [EOF] get a one-column span on their own line. *)

val tokenize_sp :
  ?file:string ->
  ?sink:Fd_support.Diag.sink ->
  string ->
  (Fd_support.Loc.t * Fd_support.Loc.t * Token.t) list
(** The whole spanned token stream, [EOF] last: the cursor run to the
    end.  With [?sink], recovers from lexical errors (recording them)
    instead of raising. *)
