(* Runtime scalar values with Fortran-style coercions. *)

open Fd_support
open Fd_frontend

type t = Vint of int | Vreal of float | Vbool of bool

let zero_of = function
  | Ast.Real -> Vreal 0.0
  | Ast.Integer -> Vint 0
  | Ast.Logical -> Vbool false

let vtrue, vfalse = (Vbool true, Vbool false)
let of_bool b = if b then vtrue else vfalse

let to_float = function
  | Vreal f -> f
  | Vint i -> float_of_int i
  | Vbool _ -> Diag.error "logical value used as number"

let to_int = function
  | Vint i -> i
  | Vreal f -> int_of_float f
  | Vbool _ -> Diag.error "logical value used as integer"

let to_bool = function
  | Vbool b -> b
  | _ -> Diag.error "numeric value used as logical"

(* Integer when both operands are, real otherwise. *)
let add a b = match (a, b) with Vint x, Vint y -> Vint (x + y) | _ -> Vreal (to_float a +. to_float b)
let sub a b = match (a, b) with Vint x, Vint y -> Vint (x - y) | _ -> Vreal (to_float a -. to_float b)
let mul a b = match (a, b) with Vint x, Vint y -> Vint (x * y) | _ -> Vreal (to_float a *. to_float b)

let div a b =
  match (a, b) with
  | Vint x, Vint y ->
    if y = 0 then Diag.error "integer division by zero" else Vint (x / y)
  | _ -> Vreal (to_float a /. to_float b)

let pow a b =
  match (a, b) with
  | Vint x, Vint y when y >= 0 ->
    let rec go acc n = if n = 0 then acc else go (acc * x) (n - 1) in
    Vint (go 1 y)
  | _ -> Vreal (Float.pow (to_float a) (to_float b))

let compare_num a b =
  match (a, b) with
  | Vint x, Vint y -> compare x y
  | _ -> compare (to_float a) (to_float b)

let equal a b =
  match (a, b) with
  | Vbool x, Vbool y -> x = y
  | Vint x, Vint y -> x = y
  | _ -> Float.equal (to_float a) (to_float b)

let pp ppf = function
  | Vint i -> Fmt.int ppf i
  | Vreal f -> Fmt.pf ppf "%.6g" f
  | Vbool b -> Fmt.string ppf (if b then "T" else "F")

let to_string v = Fmt.str "%a" pp v
