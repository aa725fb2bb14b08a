(* Scalar values and their arithmetic with Fortran-style coercions: the
   one scalar semantics of the simulator, sema's constant folding and
   the verifier's lanes. *)

open Fd_support

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

(* By squaring, wrapping as repeated multiplication does; a negative
   exponent is 1 / x ** |n| in integer arithmetic. *)
let ipow x n =
  if n >= 0 then
    let rec go acc b n = if n = 0 then acc else go (if n land 1 = 1 then acc * b else acc) (b * b) (n lsr 1) in
    go 1 x n
  else if x = 0 then Diag.error "integer division by zero"
  else if x = 1 || (x = -1 && n land 1 = 0) then 1
  else if x = -1 then -1
  else 0

let pow a b =
  match (a, b) with
  | Vint x, Vint y -> Vint (ipow x y)
  | _ -> Vreal (Float.pow (to_float a) (to_float b))

(* A subtraction from integer zero: -(0.0) is 0.0. *)
let neg v = sub (Vint 0) v

let arith = function
  | Ast.Add -> add
  | Ast.Sub -> sub
  | Ast.Mul -> mul
  | Ast.Div -> div
  | _ -> pow

let compare_num a b =
  match (a, b) with
  | Vint x, Vint y -> compare x y
  | _ -> compare (to_float a) (to_float b)

let equal a b =
  match (a, b) with
  | Vbool x, Vbool y -> x = y
  | Vint x, Vint y -> x = y
  | _ -> Float.equal (to_float a) (to_float b)

let test = function
  | Ast.Eq -> fun c -> c = 0
  | Ast.Ne -> fun c -> c <> 0
  | Ast.Lt -> fun c -> c < 0
  | Ast.Le -> fun c -> c <= 0
  | Ast.Gt -> fun c -> c > 0
  | _ -> fun c -> c >= 0

(* [Float.equal x y] is [Float.compare x y = 0], so on numbers [equal]
   agrees with [test Eq]. *)
let relation op a b =
  match op with
  | Ast.Eq -> equal a b
  | Ast.Ne -> not (equal a b)
  | _ -> test op (compare_num a b)

(* --- The arithmetic intrinsics -------------------------------------------- *)

let integer v = Vint (to_int v)
let real v = Vreal (to_float v)

let abs = function
  | Vint i -> Vint (Stdlib.abs i)
  | Vreal f -> Vreal (Float.abs f)
  | Vbool _ -> Diag.error "abs of logical"

let modulo a b =
  match (a, b) with
  | Vint x, Vint y -> if y = 0 then Diag.error "mod by zero" else Vint (x mod y)
  | _ -> Vreal (Float.rem (to_float a) (to_float b))

(* The first operand on a tie; real unless both are integers. *)
let extremum better a b =
  let r = if better (compare_num b a) then b else a in
  match (a, b) with Vint _, Vint _ -> r | _ -> Vreal (to_float r)

let max = extremum (fun c -> c > 0)
let min = extremum (fun c -> c < 0)

let pp ppf = function
  | Vint i -> Fmt.int ppf i
  | Vreal f -> Fmt.pf ppf "%.6g" f
  | Vbool b -> Fmt.string ppf (if b then "T" else "F")

let to_string v = Fmt.str "%a" pp v
