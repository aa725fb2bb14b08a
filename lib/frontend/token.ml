(* Tokens for the mini-Fortran-D lexer. *)

type t =
  | INT of int
  | REAL_LIT of float
  | IDENT of string   (* lower-cased *)
  | KW of string      (* recognized keyword, lower-cased *)
  | PLUS | MINUS | STAR | SLASH | POW
  | EQ                (* = *)
  | EQEQ | NE | LT | LE | GT | GE
  | AND | OR | NOT
  | TRUE | FALSE
  | LPAREN | RPAREN
  | COMMA | COLON
  | NEWLINE
  | EOF

let is_keyword = function
  | "program" | "subroutine" | "end" | "enddo" | "endif" | "if" | "then" | "else"
  | "elseif" | "do" | "call" | "return" | "real" | "integer" | "logical"
  | "parameter" | "decomposition" | "align" | "with" | "distribute" | "common" | "block"
  | "cyclic" | "block_cyclic" | "print" ->
    true
  | _ -> false

let equal a b =
  match (a, b) with
  | INT x, INT y -> Int.equal x y
  | REAL_LIT x, REAL_LIT y -> Float.equal x y
  | IDENT x, IDENT y | KW x, KW y -> String.equal x y
  | (INT _ | REAL_LIT _ | IDENT _ | KW _), _ -> false
  | _ -> a == b (* [a] is a constant constructor, an immediate *)

let pp ppf = function
  | INT n -> Fmt.pf ppf "INT(%d)" n
  | REAL_LIT f -> Fmt.pf ppf "REAL(%g)" f
  | IDENT s -> Fmt.pf ppf "IDENT(%s)" s
  | KW s -> Fmt.pf ppf "KW(%s)" s
  | PLUS -> Fmt.string ppf "+"
  | MINUS -> Fmt.string ppf "-"
  | STAR -> Fmt.string ppf "*"
  | SLASH -> Fmt.string ppf "/"
  | POW -> Fmt.string ppf "**"
  | EQ -> Fmt.string ppf "="
  | EQEQ -> Fmt.string ppf "=="
  | NE -> Fmt.string ppf "/="
  | LT -> Fmt.string ppf "<"
  | LE -> Fmt.string ppf "<="
  | GT -> Fmt.string ppf ">"
  | GE -> Fmt.string ppf ">="
  | AND -> Fmt.string ppf ".and."
  | OR -> Fmt.string ppf ".or."
  | NOT -> Fmt.string ppf ".not."
  | TRUE -> Fmt.string ppf ".true."
  | FALSE -> Fmt.string ppf ".false."
  | LPAREN -> Fmt.string ppf "("
  | RPAREN -> Fmt.string ppf ")"
  | COMMA -> Fmt.string ppf ","
  | COLON -> Fmt.string ppf ":"
  | NEWLINE -> Fmt.string ppf "<nl>"
  | EOF -> Fmt.string ppf "<eof>"

let to_string t = Fmt.str "%a" pp t
