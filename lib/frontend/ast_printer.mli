(** Pretty-printer producing parseable mini-Fortran-D source.  The
    lexer/parser/printer triple round-trips (property-tested). *)

val dtype_name : Ast.dtype -> string

val pp_expr : Format.formatter -> Ast.expr -> unit
(** Minimal parenthesization by operator precedence. *)

val pp_punit : Format.formatter -> Ast.punit -> unit

val program_to_string : Ast.program -> string
val expr_to_string : Ast.expr -> string
