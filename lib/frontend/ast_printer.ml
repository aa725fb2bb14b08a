(* Pretty-printer producing parseable mini-Fortran-D source.  The
   lexer/parser/printer triple round-trips (tested with qcheck). *)

open Fd_support

let dtype_name = function
  | Ast.Real -> "real"
  | Ast.Integer -> "integer"
  | Ast.Logical -> "logical"

let binop_name = function
  | Ast.Add -> "+"
  | Ast.Sub -> "-"
  | Ast.Mul -> "*"
  | Ast.Div -> "/"
  | Ast.Pow -> "**"
  | Ast.Eq -> "=="
  | Ast.Ne -> "/="
  | Ast.Lt -> "<"
  | Ast.Le -> "<="
  | Ast.Gt -> ">"
  | Ast.Ge -> ">="
  | Ast.And -> ".and."
  | Ast.Or -> ".or."

(* Precedence levels for minimal parenthesization. *)
let binop_prec = function
  | Ast.Or -> 1
  | Ast.And -> 2
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> 4
  | Ast.Add | Ast.Sub -> 5
  | Ast.Mul | Ast.Div -> 6
  | Ast.Pow -> 8

let rec pp_expr_prec prec ppf e =
  match e with
  | Ast.Int_const n ->
    if n < 0 && prec > 7 then Fmt.pf ppf "(%d)" n else Fmt.int ppf n
  | Ast.Real_const f ->
    let s = Fmt.str "%.17g" f in
    let s = if String.contains s '.' || String.contains s 'e' || String.contains s 'n' then s else s ^ ".0" in
    if f < 0.0 && prec > 7 then Fmt.pf ppf "(%s)" s else Fmt.string ppf s
  | Ast.Logical_const true -> Fmt.string ppf ".true."
  | Ast.Logical_const false -> Fmt.string ppf ".false."
  | Ast.Var v -> Fmt.string ppf v
  | Ast.Ref (a, subs) | Ast.Funcall (a, subs) ->
    Fmt.pf ppf "%s(%a)" a Fmt.(list ~sep:(any ", ") pp_expr) subs
  | Ast.Bin (op, a, b) ->
    let p = binop_prec op in
    let la, ra = match op with Ast.Pow -> (p + 1, p) | _ -> (p, p + 1) in
    if p < prec then
      Fmt.pf ppf "(%a %s %a)" (pp_expr_prec la) a (binop_name op) (pp_expr_prec ra) b
    else Fmt.pf ppf "%a %s %a" (pp_expr_prec la) a (binop_name op) (pp_expr_prec ra) b
  | Ast.Un (Ast.Neg, a) ->
    if prec > 7 then Fmt.pf ppf "(-%a)" (pp_expr_prec 7) a
    else Fmt.pf ppf "-%a" (pp_expr_prec 7) a
  | Ast.Un (Ast.Not, a) ->
    if prec > 3 then Fmt.pf ppf "(.not. %a)" (pp_expr_prec 3) a
    else Fmt.pf ppf ".not. %a" (pp_expr_prec 3) a

and pp_expr ppf e = pp_expr_prec 0 ppf e

let pp_dim ppf { Ast.dlo; dhi } =
  match dlo with
  | Ast.Int_const 1 -> pp_expr ppf dhi
  | _ -> Fmt.pf ppf "%a:%a" pp_expr dlo pp_expr dhi

let pp_declarator ppf (name, dims) =
  match dims with
  | [] -> Fmt.string ppf name
  | _ -> Fmt.pf ppf "%s(%a)" name Fmt.(list ~sep:(any ", ") pp_dim) dims

let pp_decl ppf = function
  | Ast.Dcl_type (ty, ds) ->
    Fmt.pf ppf "%s %a" (dtype_name ty) Fmt.(list ~sep:(any ", ") pp_declarator) ds
  | Ast.Dcl_param bindings ->
    let pp_b ppf (n, v) = Fmt.pf ppf "%s = %a" n pp_expr v in
    Fmt.pf ppf "parameter (%a)" Fmt.(list ~sep:(any ", ") pp_b) bindings
  | Ast.Dcl_decomposition ds ->
    Fmt.pf ppf "decomposition %a" Fmt.(list ~sep:(any ", ") pp_declarator) ds
  | Ast.Dcl_common (block, names) ->
    Fmt.pf ppf "common /%s/ %s" block (String.concat ", " names)

let dist_name = function
  | Ast.Block -> "block"
  | Ast.Cyclic -> "cyclic"
  | Ast.Block_cyclic k -> Fmt.str "block_cyclic(%d)" k
  | Ast.Star -> ":"

let align_sub_name placeholders = function
  | Ast.Align_const c -> string_of_int c
  | Ast.Align_dim (i, 0) -> List.nth placeholders i
  | Ast.Align_dim (i, c) when c > 0 -> Fmt.str "%s+%d" (List.nth placeholders i) c
  | Ast.Align_dim (i, c) -> Fmt.str "%s-%d" (List.nth placeholders i) (-c)

let placeholder_names = [ "i"; "j"; "k"; "l"; "m"; "n_" ]

let rec pp_stmt indent ppf (s : Ast.stmt) =
  let pad = String.make indent ' ' in
  match s.kind with
  | Ast.Assign (lhs, rhs) -> Fmt.pf ppf "%s%a = %a@." pad pp_expr lhs pp_expr rhs
  | Ast.Do { var; lo; hi; step; body } ->
    (match step with
    | None -> Fmt.pf ppf "%sdo %s = %a, %a@." pad var pp_expr lo pp_expr hi
    | Some st ->
      Fmt.pf ppf "%sdo %s = %a, %a, %a@." pad var pp_expr lo pp_expr hi pp_expr st);
    List.iter (pp_stmt (indent + 2) ppf) body;
    Fmt.pf ppf "%senddo@." pad
  | Ast.If { cond; then_; else_ } ->
    Fmt.pf ppf "%sif (%a) then@." pad pp_expr cond;
    List.iter (pp_stmt (indent + 2) ppf) then_;
    if else_ <> [] then begin
      Fmt.pf ppf "%selse@." pad;
      List.iter (pp_stmt (indent + 2) ppf) else_
    end;
    Fmt.pf ppf "%sendif@." pad
  | Ast.Call (name, []) -> Fmt.pf ppf "%scall %s()@." pad name
  | Ast.Call (name, args) ->
    Fmt.pf ppf "%scall %s(%a)@." pad name Fmt.(list ~sep:(any ", ") pp_expr) args
  | Ast.Align { array; target; subs } ->
    let nplace =
      1 + List.fold_left (fun acc -> function Ast.Align_dim (i, _) -> max acc i | _ -> acc) (-1) subs
    in
    let nplace = max nplace 1 in
    let ps = Listx.take nplace placeholder_names in
    Fmt.pf ppf "%salign %s(%s) with %s(%s)@." pad array (String.concat ", " ps)
      target
      (String.concat ", " (List.map (align_sub_name ps) subs))
  | Ast.Distribute { decomp; dists } ->
    Fmt.pf ppf "%sdistribute %s(%s)@." pad decomp
      (String.concat ", " (List.map dist_name dists))
  | Ast.Return -> Fmt.pf ppf "%sreturn@." pad
  | Ast.Print [] -> Fmt.pf ppf "%sprint *@." pad
  | Ast.Print args ->
    Fmt.pf ppf "%sprint *, %a@." pad Fmt.(list ~sep:(any ", ") pp_expr) args

let pp_punit ppf (u : Ast.punit) =
  (match u.ukind with
  | Ast.Main -> Fmt.pf ppf "program %s@." u.uname
  | Ast.Subroutine ->
    if u.formals = [] then Fmt.pf ppf "subroutine %s()@." u.uname
    else Fmt.pf ppf "subroutine %s(%s)@." u.uname (String.concat ", " u.formals));
  List.iter (fun d -> Fmt.pf ppf "  %a@." pp_decl d) u.decls;
  List.iter (pp_stmt 2 ppf) u.body;
  Fmt.pf ppf "end@."

let pp_program ppf (p : Ast.program) =
  Fmt.(list ~sep:(any "@.") pp_punit) ppf p

let program_to_string p = Fmt.str "%a" pp_program p
let expr_to_string e = Fmt.str "%a" pp_expr e
