(** Lexical tokens for mini-Fortran D. *)

type t =
  | INT of int
  | REAL_LIT of float
  | IDENT of string  (** identifier, lower-cased *)
  | KW of string     (** recognized keyword, lower-cased *)
  | PLUS | MINUS | STAR | SLASH | POW
  | EQ
  | EQEQ | NE | LT | LE | GT | GE
  | AND | OR | NOT
  | TRUE | FALSE
  | LPAREN | RPAREN
  | COMMA | COLON
  | NEWLINE  (** statement separator; consecutive separators collapse *)
  | EOF

val is_keyword : string -> bool

val equal : t -> t -> bool

val to_string : t -> string
