(* Recursive-descent parser for mini-Fortran D.

   Grammar notes:
   - one statement per logical line (NEWLINE-separated; `&` continues);
   - `ident(args)` parses as [Ast.Ref]; {!Sema} rewrites intrinsic
     applications to [Ast.Funcall];
   - `elseif` chains desugar to nested IFs;
   - `end do` / `end if` two-word forms are accepted.

   Error recovery: when the state carries a {!Diag.sink}, a syntax
   error records a spanned diagnostic and raises the local {!Recover},
   which is caught at the nearest synchronization point — statement
   level ([block]/[decls] skip to just past the next NEWLINE) or unit
   level ([program] skips to the next PROGRAM/SUBROUTINE header) — so
   one parse reports every syntax error it can reach.  Without a sink
   the first error raises {!Diag.Compile_error} as before. *)

open Fd_support

type state = {
  toks : (Loc.t * Loc.t * Token.t) array;
  mutable pos : int;
  mutable next_sid : int;
  sink : Diag.sink option;
}

let make_state ?sink toks =
  { toks = Array.of_list toks; pos = 0; next_sid = 0; sink }

let fresh_sid st =
  let id = st.next_sid in
  st.next_sid <- id + 1;
  id

let cur st =
  let _, _, t = st.toks.(st.pos) in
  t

(* Is the current token [tok]? *)
let at st tok = Token.equal (cur st) tok

let cur_loc st =
  let l, _, _ = st.toks.(st.pos) in
  l

let cur_end st =
  let _, e, _ = st.toks.(st.pos) in
  e

let advance st = if st.pos < Array.length st.toks - 1 then st.pos <- st.pos + 1

(* Raised after a recorded syntax error when a sink is present; caught
   at statement/unit synchronization points. *)
exception Recover

let error st fmt =
  Format.kasprintf
    (fun msg ->
      let msg = Fmt.str "%s (found %s)" msg (Token.to_string (cur st)) in
      let d = Diag.make ~end_:(cur_end st) Diag.Error (cur_loc st) msg in
      match st.sink with
      | None -> raise (Diag.Compile_error d)
      | Some sink ->
        Diag.report sink d;
        raise Recover)
    fmt

let eat st tok =
  if at st tok then advance st
  else error st "expected %s" (Token.to_string tok)

let eat_kw st kw = eat st (Token.KW kw)

let skip_newlines st =
  while at st Token.NEWLINE do
    advance st
  done

(* Statement-level resynchronization: skip to just past the next
   NEWLINE (or stop at EOF).  Always makes progress because [error] is
   never raised while sitting on a NEWLINE that was already consumed. *)
let rec sync_stmt st =
  match cur st with
  | Token.EOF -> ()
  | Token.NEWLINE -> advance st
  | _ ->
    advance st;
    sync_stmt st

(* Unit-level resynchronization: skip to the next PROGRAM/SUBROUTINE
   header that starts a statement (i.e. follows a NEWLINE), or EOF. *)
let rec sync_unit st =
  match cur st with
  | Token.EOF -> ()
  | Token.NEWLINE -> (
    advance st;
    skip_newlines st;
    match cur st with
    | Token.KW ("program" | "subroutine") | Token.EOF -> ()
    | _ -> sync_unit st)
  | _ ->
    advance st;
    sync_unit st

let end_of_stmt st =
  match cur st with
  | Token.NEWLINE ->
    advance st;
    skip_newlines st
  | Token.EOF -> ()
  | _ -> error st "expected end of statement"

let ident st =
  match cur st with
  | Token.IDENT s ->
    advance st;
    s
  | _ -> error st "expected identifier"

(* --- Expressions --------------------------------------------------- *)

let rec expr st = expr_or st

and expr_or st =
  let lhs = expr_and st in
  if at st Token.OR then (
    advance st;
    Ast.Bin (Ast.Or, lhs, expr_or st))
  else lhs

and expr_and st =
  let lhs = expr_not st in
  if at st Token.AND then (
    advance st;
    Ast.Bin (Ast.And, lhs, expr_and st))
  else lhs

and expr_not st =
  if at st Token.NOT then (
    advance st;
    Ast.Un (Ast.Not, expr_not st))
  else expr_cmp st

and expr_cmp st =
  let lhs = expr_add st in
  let op =
    match cur st with
    | Token.EQEQ -> Some Ast.Eq
    | Token.NE -> Some Ast.Ne
    | Token.LT -> Some Ast.Lt
    | Token.LE -> Some Ast.Le
    | Token.GT -> Some Ast.Gt
    | Token.GE -> Some Ast.Ge
    | _ -> None
  in
  match op with
  | None -> lhs
  | Some op ->
    advance st;
    Ast.Bin (op, lhs, expr_add st)

and expr_add st =
  let rec loop lhs =
    match cur st with
    | Token.PLUS ->
      advance st;
      loop (Ast.Bin (Ast.Add, lhs, expr_mul st))
    | Token.MINUS ->
      advance st;
      loop (Ast.Bin (Ast.Sub, lhs, expr_mul st))
    | _ -> lhs
  in
  loop (expr_mul st)

and expr_mul st =
  let rec loop lhs =
    match cur st with
    | Token.STAR ->
      advance st;
      loop (Ast.Bin (Ast.Mul, lhs, expr_unary st))
    | Token.SLASH ->
      advance st;
      loop (Ast.Bin (Ast.Div, lhs, expr_unary st))
    | _ -> lhs
  in
  loop (expr_unary st)

and expr_unary st =
  match cur st with
  | Token.MINUS ->
    advance st;
    Ast.Un (Ast.Neg, expr_unary st)
  | Token.PLUS ->
    advance st;
    expr_unary st
  | _ -> expr_pow st

and expr_pow st =
  let base = expr_primary st in
  if at st Token.POW then (
    advance st;
    Ast.Bin (Ast.Pow, base, expr_unary st))
  else base

and expr_primary st =
  match cur st with
  | Token.INT n ->
    advance st;
    Ast.Int_const n
  | Token.REAL_LIT f ->
    advance st;
    Ast.Real_const f
  | Token.TRUE ->
    advance st;
    Ast.Logical_const true
  | Token.FALSE ->
    advance st;
    Ast.Logical_const false
  | Token.LPAREN ->
    advance st;
    let e = expr st in
    eat st Token.RPAREN;
    e
  | Token.IDENT name ->
    advance st;
    if at st Token.LPAREN then (
      advance st;
      let args = expr_list st in
      eat st Token.RPAREN;
      Ast.Ref (name, args))
    else Ast.Var name
  | _ -> error st "expected expression"

and expr_list st =
  let e = expr st in
  if at st Token.COMMA then (
    advance st;
    e :: expr_list st)
  else [ e ]

(* --- Declarations --------------------------------------------------- *)

let dim st =
  let lo_or_hi = expr st in
  if at st Token.COLON then (
    advance st;
    let hi = expr st in
    { Ast.dlo = lo_or_hi; dhi = hi })
  else { Ast.dlo = Ast.Int_const 1; dhi = lo_or_hi }

let dims st =
  (* parses "( dim, dim, ... )" if present *)
  if at st Token.LPAREN then (
    advance st;
    let rec loop () =
      let d = dim st in
      if at st Token.COMMA then (
        advance st;
        d :: loop ())
      else [ d ]
    in
    let ds = loop () in
    eat st Token.RPAREN;
    ds)
  else []

let declarator st =
  let name = ident st in
  (name, dims st)

let declarator_list st =
  let rec loop () =
    let d = declarator st in
    if at st Token.COMMA then (
      advance st;
      d :: loop ())
    else [ d ]
  in
  loop ()

let decl st : Ast.decl option =
  match cur st with
  | Token.KW (("real" | "integer" | "logical") as ty) ->
    advance st;
    let dtype =
      match ty with
      | "real" -> Ast.Real
      | "integer" -> Ast.Integer
      | _ -> Ast.Logical
    in
    let ds = declarator_list st in
    end_of_stmt st;
    Some (Ast.Dcl_type (dtype, ds))
  | Token.KW "parameter" ->
    advance st;
    eat st Token.LPAREN;
    let rec loop () =
      let name = ident st in
      eat st Token.EQ;
      let value = expr st in
      if at st Token.COMMA then (
        advance st;
        (name, value) :: loop ())
      else [ (name, value) ]
    in
    let bindings = loop () in
    eat st Token.RPAREN;
    end_of_stmt st;
    Some (Ast.Dcl_param bindings)
  | Token.KW "decomposition" ->
    advance st;
    let ds = declarator_list st in
    end_of_stmt st;
    Some (Ast.Dcl_decomposition ds)
  | Token.KW "common" ->
    advance st;
    eat st Token.SLASH;
    let block = ident st in
    eat st Token.SLASH;
    let rec names () =
      let n = ident st in
      if at st Token.COMMA then (
        advance st;
        n :: names ())
      else [ n ]
    in
    let ns = names () in
    end_of_stmt st;
    Some (Ast.Dcl_common (block, ns))
  | _ -> None

(* --- Statements ----------------------------------------------------- *)

let dist_spec st : Ast.dist_kind =
  match cur st with
  | Token.KW "block" ->
    advance st;
    Ast.Block
  | Token.KW "cyclic" ->
    advance st;
    Ast.Cyclic
  | Token.KW "block_cyclic" ->
    advance st;
    eat st Token.LPAREN;
    let k = match cur st with
      | Token.INT n ->
        advance st;
        n
      | _ -> error st "expected block size"
    in
    eat st Token.RPAREN;
    Ast.Block_cyclic k
  | Token.COLON ->
    advance st;
    Ast.Star
  | _ -> error st "expected distribution specifier"

(* Convert an ALIGN subscript expression over placeholder names into an
   [Ast.align_sub], given the placeholder list of the source side. *)
let align_sub_of_expr st placeholders e =
  let index_of p =
    let rec find i = function
      | [] -> error st "unknown alignment placeholder %s" p
      | q :: _ when String.equal p q -> i
      | _ :: rest -> find (i + 1) rest
    in
    find 0 placeholders
  in
  match e with
  | Ast.Int_const c -> Ast.Align_const c
  | Ast.Var p -> Ast.Align_dim (index_of p, 0)
  | Ast.Bin (Ast.Add, Ast.Var p, Ast.Int_const c) -> Ast.Align_dim (index_of p, c)
  | Ast.Bin (Ast.Sub, Ast.Var p, Ast.Int_const c) -> Ast.Align_dim (index_of p, -c)
  | Ast.Bin (Ast.Add, Ast.Int_const c, Ast.Var p) -> Ast.Align_dim (index_of p, c)
  | _ -> error st "unsupported ALIGN subscript (must be placeholder +/- constant)"

let rec statement st : Ast.stmt =
  let loc = cur_loc st in
  let sid = fresh_sid st in
  let kind = statement_kind st in
  { Ast.sid; loc; kind }

and statement_kind st : Ast.stmt_kind =
  match cur st with
  | Token.KW "do" ->
    advance st;
    let var = ident st in
    eat st Token.EQ;
    let lo = expr st in
    eat st Token.COMMA;
    let hi = expr st in
    let step =
      if at st Token.COMMA then (
        advance st;
        Some (expr st))
      else None
    in
    end_of_stmt st;
    let body = block st in
    (match cur st with
    | Token.KW "enddo" ->
      advance st;
      end_of_stmt st
    | Token.KW "end" -> (
      advance st;
      match cur st with
      | Token.KW "do" ->
        advance st;
        end_of_stmt st
      | _ -> error st "expected DO to close loop")
    | _ -> error st "expected ENDDO");
    Ast.Do { var; lo; hi; step; body }
  | Token.KW "if" ->
    advance st;
    eat st Token.LPAREN;
    let cond = expr st in
    eat st Token.RPAREN;
    if at st (Token.KW "then") then (
      advance st;
      end_of_stmt st;
      let then_ = block st in
      let else_ = if_tail st in
      Ast.If { cond; then_; else_ })
    else
      (* one-line IF *)
      let s = statement st in
      Ast.If { cond; then_ = [ s ]; else_ = [] }
  | Token.KW "call" ->
    advance st;
    let name = ident st in
    let args =
      if at st Token.LPAREN then (
        advance st;
        if at st Token.RPAREN then (
          advance st;
          [])
        else
          let args = expr_list st in
          eat st Token.RPAREN;
          args)
      else []
    in
    end_of_stmt st;
    Ast.Call (name, args)
  | Token.KW "return" ->
    advance st;
    end_of_stmt st;
    Ast.Return
  | Token.KW "align" ->
    advance st;
    let array = ident st in
    eat st Token.LPAREN;
    let rec placeholder_list () =
      let p = ident st in
      if at st Token.COMMA then (
        advance st;
        p :: placeholder_list ())
      else [ p ]
    in
    let placeholders = placeholder_list () in
    eat st Token.RPAREN;
    eat_kw st "with";
    let target = ident st in
    eat st Token.LPAREN;
    let subs_exprs = expr_list st in
    eat st Token.RPAREN;
    end_of_stmt st;
    let subs = List.map (align_sub_of_expr st placeholders) subs_exprs in
    Ast.Align { array; target; subs }
  | Token.KW "distribute" ->
    advance st;
    let decomp = ident st in
    eat st Token.LPAREN;
    let rec specs () =
      let d = dist_spec st in
      if at st Token.COMMA then (
        advance st;
        d :: specs ())
      else [ d ]
    in
    let dists = specs () in
    eat st Token.RPAREN;
    end_of_stmt st;
    Ast.Distribute { decomp; dists }
  | Token.KW "print" ->
    advance st;
    (* accept `print *, args` and `print args` *)
    if at st Token.STAR then (
      advance st;
      eat st Token.COMMA);
    let args =
      match cur st with
      | Token.NEWLINE | Token.EOF -> []
      | _ -> expr_list st
    in
    end_of_stmt st;
    Ast.Print args
  | Token.IDENT _ ->
    let lhs = expr_primary st in
    (match lhs with
    | Ast.Var _ | Ast.Ref _ ->
      eat st Token.EQ;
      let rhs = expr st in
      end_of_stmt st;
      Ast.Assign (lhs, rhs)
    | _ -> error st "expected assignment")
  | _ -> error st "expected statement"

and if_tail st : Ast.stmt list =
  (* at ELSE / ELSEIF / ENDIF after a THEN-block *)
  match cur st with
  | Token.KW "endif" ->
    advance st;
    end_of_stmt st;
    []
  | Token.KW "elseif" ->
    let loc = cur_loc st in
    let sid = fresh_sid st in
    advance st;
    eat st Token.LPAREN;
    let cond = expr st in
    eat st Token.RPAREN;
    eat_kw st "then";
    end_of_stmt st;
    let then_ = block st in
    let else_ = if_tail st in
    [ { Ast.sid; loc; kind = Ast.If { cond; then_; else_ } } ]
  | Token.KW "else" ->
    advance st;
    (* allow `else if (...) then` *)
    if at st (Token.KW "if") then (
      let loc = cur_loc st in
      let sid = fresh_sid st in
      advance st;
      eat st Token.LPAREN;
      let cond = expr st in
      eat st Token.RPAREN;
      eat_kw st "then";
      end_of_stmt st;
      let then_ = block st in
      let else_ = if_tail st in
      [ { Ast.sid; loc; kind = Ast.If { cond; then_; else_ } } ])
    else (
      end_of_stmt st;
      let else_ = block st in
      (match cur st with
      | Token.KW "endif" ->
        advance st;
        end_of_stmt st
      | Token.KW "end" -> (
        advance st;
        match cur st with
        | Token.KW "if" ->
          advance st;
          end_of_stmt st
        | _ -> error st "expected IF to close block")
      | _ -> error st "expected ENDIF");
      else_)
  | Token.KW "end" -> (
    advance st;
    match cur st with
    | Token.KW "if" ->
      advance st;
      end_of_stmt st;
      []
    | _ -> error st "expected IF to close block")
  | _ -> error st "expected ELSE or ENDIF"

and block st : Ast.stmt list =
  skip_newlines st;
  match cur st with
  | Token.KW ("enddo" | "endif" | "else" | "elseif" | "end") | Token.EOF -> []
  | _ -> (
    match statement st with
    | s -> s :: block st
    | exception Recover ->
      sync_stmt st;
      block st)

(* --- Program units -------------------------------------------------- *)

let formals st =
  if at st Token.LPAREN then (
    advance st;
    if at st Token.RPAREN then (
      advance st;
      [])
    else
      let rec loop () =
        let f = ident st in
        if at st Token.COMMA then (
          advance st;
          f :: loop ())
        else [ f ]
      in
      let fs = loop () in
      eat st Token.RPAREN;
      fs)
  else []

let decls st =
  let rec loop acc =
    skip_newlines st;
    match decl st with
    | Some d -> loop (d :: acc)
    | None -> List.rev acc
    | exception Recover ->
      (* a malformed declaration: resynchronize past its line and keep
         scanning for further declarations *)
      sync_stmt st;
      loop acc
  in
  loop []

let punit st : Ast.punit =
  skip_newlines st;
  let uloc = cur_loc st in
  let ukind, uname, fs =
    match cur st with
    | Token.KW "program" ->
      advance st;
      let name = ident st in
      (Ast.Main, name, [])
    | Token.KW "subroutine" ->
      advance st;
      let name = ident st in
      let fs = formals st in
      (Ast.Subroutine, name, fs)
    | _ -> error st "expected PROGRAM or SUBROUTINE"
  in
  end_of_stmt st;
  let ds = decls st in
  let body = block st in
  (match cur st with
  | Token.KW "end" ->
    advance st;
    (* optional `end program foo` / `end subroutine foo` *)
    (match cur st with
    | Token.KW ("program" | "subroutine") ->
      advance st;
      (match cur st with Token.IDENT _ -> advance st | _ -> ())
    | _ -> ());
    (match cur st with Token.NEWLINE -> end_of_stmt st | _ -> ())
  | _ -> error st "expected END");
  { Ast.uname; ukind; formals = fs; decls = ds; body; uloc }

let program st : Ast.program =
  let rec loop acc =
    skip_newlines st;
    if at st Token.EOF then List.rev acc
    else
      match punit st with
      | u -> loop (u :: acc)
      | exception Recover ->
        sync_unit st;
        loop acc
  in
  loop []

let parse ?file ?sink src =
  match sink with
  | Some sink ->
    let toks = Lexer.tokenize_sp ?file ~sink src in
    program (make_state ~sink toks)
  | None ->
    (* No caller sink: still parse with recovery so one invocation
       reports every reachable error, then raise the whole batch. *)
    let sink = Diag.sink () in
    let toks = Lexer.tokenize_sp ?file ~sink src in
    let p = program (make_state ~sink toks) in
    Diag.raise_if_errors sink;
    p
