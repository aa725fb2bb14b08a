(* Hand-written lexer for mini-Fortran D.

   Free-form source: case-insensitive keywords and identifiers, `!`
   comments to end of line, `&` at end of line continues the statement,
   `;` acts as a statement separator (lexed as NEWLINE).  Identifiers may
   contain `$` (compiler-generated names like my$p are legal source). *)

open Fd_support

type t = {
  src : string;
  file : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int; (* offset of beginning of current line *)
  sink : Diag.sink option; (* when set: record lexical errors and recover *)
  mutable err_line : int; (* last line already diagnosed (cascade damping) *)
}

let make ?(file = "<string>") ?sink src =
  { src; file; pos = 0; line = 1; bol = 0; sink; err_line = 0 }

let loc lx = Loc.make ~file:lx.file ~line:lx.line ~col:(lx.pos - lx.bol + 1)

let at_end lx = lx.pos >= String.length lx.src

(* The character at [pos + k], or ['\000'] past the end of the source.
   A NUL byte in the source reads the same, so code that must tell the
   end apart tests [at_end]. *)
let peek_at lx k =
  let i = lx.pos + k in
  if i < String.length lx.src then String.unsafe_get lx.src i else '\000'

let peek_char lx = peek_at lx 0
let peek_char2 lx = peek_at lx 1

let advance lx =
  if peek_char lx = '\n' then begin
    lx.line <- lx.line + 1;
    lx.bol <- lx.pos + 1
  end;
  lx.pos <- lx.pos + 1

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')

let is_ident_char c =
  is_ident_start c || (c >= '0' && c <= '9') || c = '_' || c = '$'

let is_digit c = c >= '0' && c <= '9'

(* [String.lowercase_ascii (String.sub s start len)], in one allocation. *)
let lower_sub s start len =
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.set b i (Char.lowercase_ascii s.[start + i])
  done;
  Bytes.unsafe_to_string b

(* Raised after a recorded lexical error when a sink is present; [next]
   resynchronizes and keeps lexing. *)
exception Reject

let error lx fmt =
  match lx.sink with
  | None -> Diag.error ~loc:(loc lx) fmt
  | Some sink ->
    Format.kasprintf
      (fun message ->
        (* at most one lexical diagnostic per source line, else a run of
           garbage characters produces an error cascade *)
        if lx.line <> lx.err_line then begin
          lx.err_line <- lx.line;
          let start = loc lx in
          let end_ = { start with Loc.col = start.Loc.col + 1 } in
          Diag.report sink (Diag.make ~end_ Diag.Error start message)
        end;
        raise Reject)
      fmt

let skip_comment lx =
  while (not (at_end lx)) && peek_char lx <> '\n' do
    advance lx
  done

let rec skip_blanks_and_comments lx =
  match peek_char lx with
  | ' ' | '\t' | '\r' ->
    advance lx;
    skip_blanks_and_comments lx
  | '!' ->
    skip_comment lx;
    skip_blanks_and_comments lx
  | '&' ->
    (* continuation: swallow the '&', any trailing blanks/comment, and the
       newline, then keep lexing the logical line *)
    advance lx;
    let rec to_eol () =
      match peek_char lx with
      | ' ' | '\t' | '\r' ->
        advance lx;
        to_eol ()
      | '!' ->
        skip_comment lx;
        to_eol ()
      | '\n' ->
        advance lx;
        skip_blanks_and_comments lx
      | _ -> error lx "expected end of line after continuation '&'"
    in
    to_eol ()
  | _ -> ()

let lex_number lx =
  let start = lx.pos in
  while is_digit (peek_char lx) do
    advance lx
  done;
  let is_real = ref false in
  (* Fractional part: a '.' followed by a digit (to avoid eating `.and.`) *)
  (match (peek_char lx, peek_char2 lx) with
  | '.', c when is_digit c ->
    is_real := true;
    advance lx;
    while is_digit (peek_char lx) do
      advance lx
    done
  | '.', ('e' | 'E' | 'd' | 'D') ->
    (* "1.e5": treat as real unless it starts a dotted operator *)
    let save = lx.pos in
    advance lx;
    (match peek_char lx with
    | c when is_ident_start c ->
      (* could be `.eq.` etc: only consume if it's an exponent *)
      let rest = String.sub lx.src lx.pos (min 4 (String.length lx.src - lx.pos)) in
      let lower = String.lowercase_ascii rest in
      if String.length lower >= 2 && (lower.[0] = 'e' || lower.[0] = 'd')
         && (is_digit lower.[1] || lower.[1] = '+' || lower.[1] = '-')
      then is_real := true
      else lx.pos <- save
    | _ -> is_real := true)
  | '.', _ ->
    (* "1." *)
    is_real := true;
    advance lx
  | _ -> ());
  (* Exponent *)
  (match peek_char lx with
  | 'e' | 'E' | 'd' | 'D'
    when let c = peek_char2 lx in
         is_digit c || c = '+' || c = '-' ->
    is_real := true;
    advance lx;
    (match peek_char lx with '+' | '-' -> advance lx | _ -> ());
    while is_digit (peek_char lx) do
      advance lx
    done
  | _ -> ());
  let text = String.sub lx.src start (lx.pos - start) in
  if !is_real then
    let text = String.map (function 'd' | 'D' -> 'e' | c -> c) text in
    Token.REAL_LIT (float_of_string text)
  else Token.INT (int_of_string text)

let lex_dotted lx =
  (* `.eq.` `.and.` `.true.` etc. Position is at the leading '.'. *)
  let start = lx.pos in
  advance lx;
  let word_start = lx.pos in
  while is_ident_start (peek_char lx) do
    advance lx
  done;
  let word = lower_sub lx.src word_start (lx.pos - word_start) in
  (match peek_char lx with
  | '.' -> advance lx
  | _ ->
    lx.pos <- start;
    error lx "malformed dotted operator");
  match word with
  | "eq" -> Token.EQEQ
  | "ne" -> Token.NE
  | "lt" -> Token.LT
  | "le" -> Token.LE
  | "gt" -> Token.GT
  | "ge" -> Token.GE
  | "and" -> Token.AND
  | "or" -> Token.OR
  | "not" -> Token.NOT
  | "true" -> Token.TRUE
  | "false" -> Token.FALSE
  | w -> error lx "unknown dotted operator .%s." w

let rec next lx : Loc.t * Token.t =
  let pos0 = lx.pos in
  match next_raw lx with
  | tok -> tok
  | exception Reject ->
    (* resynchronize: guarantee progress, then retry.  If the failed
       attempt consumed input (dotted-operator backtrack, continuation
       junk) we retry in place; otherwise skip the offending char. *)
    if lx.pos = pos0 && not (at_end lx) then advance lx;
    next lx

and next_raw lx : Loc.t * Token.t =
  skip_blanks_and_comments lx;
  let l = loc lx in
  match peek_char lx with
  | _ when at_end lx -> (l, Token.EOF)
  | '\n' | ';' ->
    (* collapse consecutive newlines/semicolons into one NEWLINE *)
    let rec swallow () =
      skip_blanks_and_comments lx;
      match peek_char lx with
      | '\n' | ';' ->
        advance lx;
        swallow ()
      | _ -> ()
    in
    swallow ();
    (l, Token.NEWLINE)
  | c when is_digit c -> (l, lex_number lx)
  | '.' -> (
    match peek_char2 lx with
    | c when is_digit c -> (l, lex_number lx)
    | _ -> (l, lex_dotted lx))
  | c when is_ident_start c ->
    let start = lx.pos in
    while is_ident_char (peek_char lx) do
      advance lx
    done;
    let word = lower_sub lx.src start (lx.pos - start) in
    if Token.is_keyword word then (l, Token.KW word) else (l, Token.IDENT word)
  | '+' ->
    advance lx;
    (l, Token.PLUS)
  | '-' ->
    advance lx;
    (l, Token.MINUS)
  | '*' ->
    advance lx;
    if peek_char lx = '*' then (
      advance lx;
      (l, Token.POW))
    else (l, Token.STAR)
  | '/' ->
    advance lx;
    if peek_char lx = '=' then (
      advance lx;
      (l, Token.NE))
    else (l, Token.SLASH)
  | '=' ->
    advance lx;
    if peek_char lx = '=' then (
      advance lx;
      (l, Token.EQEQ))
    else (l, Token.EQ)
  | '<' ->
    advance lx;
    if peek_char lx = '=' then (
      advance lx;
      (l, Token.LE))
    else if peek_char lx = '>' then (
      advance lx;
      (l, Token.NE))
    else (l, Token.LT)
  | '>' ->
    advance lx;
    if peek_char lx = '=' then (
      advance lx;
      (l, Token.GE))
    else (l, Token.GT)
  | '(' ->
    advance lx;
    (l, Token.LPAREN)
  | ')' ->
    advance lx;
    (l, Token.RPAREN)
  | ',' ->
    advance lx;
    (l, Token.COMMA)
  | ':' ->
    advance lx;
    (l, Token.COLON)
  | c -> error lx "unexpected character %C" c

(* Token with its source span: start location and (exclusive-column)
   end location.  NEWLINE/EOF get a synthetic one-column span so a
   diagnostic at end-of-statement underlines a single position instead
   of spilling onto the next line. *)
let next_sp lx : Loc.t * Loc.t * Token.t =
  let l, t = next lx in
  let e =
    match t with
    | Token.NEWLINE | Token.EOF -> { l with Loc.col = l.Loc.col + 1 }
    | _ -> loc lx
  in
  (l, e, t)

let tokenize_sp ?file ?sink src =
  let lx = make ?file ?sink src in
  let rec loop acc =
    let ((_, _, t) as tok) = next_sp lx in
    match t with Token.EOF -> List.rev (tok :: acc) | _ -> loop (tok :: acc)
  in
  loop []
