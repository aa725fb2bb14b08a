(* Affine forms over named integer variables: [sum_i c_i * v_i + k].
   The normalizer folds PARAMETER constants through the symbol table, so
   distribution math downstream sees concrete coefficients. *)

open Fd_support
open Fd_frontend

type t = { coeffs : (string * int) list; const : int }
(* coeffs sorted by name, no zero coefficients *)

let const k = { coeffs = []; const = k }
let zero = const 0

let var ?(coeff = 1) v =
  if coeff = 0 then zero else { coeffs = [ (v, coeff) ]; const = 0 }

let normalize coeffs =
  coeffs
  |> List.filter (fun (_, c) -> c <> 0)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let add a b =
  let merged =
    List.fold_left
      (fun acc (v, c) ->
        Listx.assoc_update ~equal:String.equal v
          (function None -> c | Some c' -> c + c')
          acc)
      a.coeffs b.coeffs
  in
  { coeffs = normalize merged; const = a.const + b.const }

let neg a =
  { coeffs = List.map (fun (v, c) -> (v, -c)) a.coeffs; const = -a.const }

let sub a b = add a (neg b)

let scale k a =
  if k = 0 then zero
  else { coeffs = List.map (fun (v, c) -> (v, k * c)) a.coeffs; const = k * a.const }

let is_const a = a.coeffs = []

let constant a = a.const

let const_value a = if is_const a then Some a.const else None

let coeff_of v a =
  match List.assoc_opt v a.coeffs with Some c -> c | None -> 0

let vars a = List.map fst a.coeffs

let equal a b = a.const = b.const && a.coeffs = b.coeffs

let drop_var v a =
  { a with coeffs = List.filter (fun (v', _) -> not (String.equal v v')) a.coeffs }

(* Convert an expression; [None] when non-affine.  [symtab] resolves
   PARAMETER names to constants. *)
let rec of_expr symtab (e : Ast.expr) : t option =
  match e with
  | Ast.Int_const n -> Some (const n)
  | Ast.Var v -> (
    match Symtab.param_value symtab v with
    | Some n -> Some (const n)
    | None -> Some (var v))
  | Ast.Un (Ast.Neg, a) -> Option.map neg (of_expr symtab a)
  | Ast.Bin (Ast.Add, a, b) -> (
    match (of_expr symtab a, of_expr symtab b) with
    | Some x, Some y -> Some (add x y)
    | _ -> None)
  | Ast.Bin (Ast.Sub, a, b) -> (
    match (of_expr symtab a, of_expr symtab b) with
    | Some x, Some y -> Some (sub x y)
    | _ -> None)
  | Ast.Bin (Ast.Mul, a, b) -> (
    match (of_expr symtab a, of_expr symtab b) with
    | Some x, Some y -> (
      match (const_value x, const_value y) with
      | Some k, _ -> Some (scale k y)
      | _, Some k -> Some (scale k x)
      | None, None -> None)
    | _ -> None)
  | Ast.Bin (Ast.Div, a, b) -> (
    match (of_expr symtab a, of_expr symtab b) with
    | Some x, Some y -> (
      match (const_value x, const_value y) with
      | Some kx, Some ky when ky <> 0 -> Some (const (kx / ky))
      | _ -> None)
    | _ -> None)
  | _ -> None

let eval env a =
  List.fold_left
    (fun acc (v, c) ->
      match env v with
      | Some x -> acc + (c * x)
      | None -> Diag.internal ~pass:"analysis" "Affine.eval: unbound variable %s" v)
    a.const a.coeffs

(* Reconstruct an AST expression (for code generation). *)
let to_expr a : Ast.expr =
  let term (v, c) : Ast.expr =
    if c = 1 then Ast.Var v
    else if c = -1 then Ast.Un (Ast.Neg, Ast.Var v)
    else Ast.Bin (Ast.Mul, Ast.Int_const c, Ast.Var v)
  in
  match a.coeffs with
  | [] -> Ast.Int_const a.const
  | t0 :: rest ->
    let base = List.fold_left (fun acc t -> Ast.Bin (Ast.Add, acc, term t)) (term t0) rest in
    if a.const = 0 then base
    else if a.const > 0 then Ast.Bin (Ast.Add, base, Ast.Int_const a.const)
    else Ast.Bin (Ast.Sub, base, Ast.Int_const (-a.const))

let pp ppf a =
  if is_const a then Fmt.int ppf a.const
  else begin
    let first = ref true in
    List.iter
      (fun (v, c) ->
        if !first then begin
          first := false;
          if c = 1 then Fmt.string ppf v
          else if c = -1 then Fmt.pf ppf "-%s" v
          else Fmt.pf ppf "%d%s" c v
        end
        else if c >= 0 then
          if c = 1 then Fmt.pf ppf "+%s" v else Fmt.pf ppf "+%d%s" c v
        else if c = -1 then Fmt.pf ppf "-%s" v
        else Fmt.pf ppf "%d%s" c v)
      a.coeffs;
    if a.const > 0 then Fmt.pf ppf "+%d" a.const
    else if a.const < 0 then Fmt.pf ppf "%d" a.const
  end
