(* The intrinsic functions, one row each: sema types a call from its
   row, and the simulator and the verifier apply its meaning. *)

open Fd_support

type arity = Exactly of int | At_least of int

type t = {
  name : string;
  arity : arity;
  result : Ast.dtype list -> Ast.dtype;
  meaning : Value.t list -> Value.t;
}

let first = function ty :: _ -> ty | [] -> Ast.Real
let real _ = Ast.Real

let unary f = function [ a ] -> f a | _ -> Diag.error "intrinsic expects 1 argument"
let binary f = function [ a; b ] -> f a b | _ -> Diag.error "intrinsic expects 2 arguments"

let fold f = function
  | v :: vs -> List.fold_left f v vs
  | [] -> Diag.error "intrinsic expects arguments"

let sign a b =
  let nonneg = Value.to_float b >= 0.0 in
  match a with
  | Value.Vint m -> let m = abs m in Value.Vint (if nonneg then m else -m)
  | _ -> let m = Float.abs (Value.to_float a) in Value.Vreal (if nonneg then m else -.m)

let table =
  let extremum name f =
    { name; arity = At_least 2; meaning = fold f;
      result = (fun tys -> if List.mem Ast.Real tys then Ast.Real else Ast.Integer) }
  in
  [ { name = "abs"; arity = Exactly 1; result = first; meaning = unary Value.abs };
    extremum "max" Value.max;
    extremum "min" Value.min;
    { name = "mod"; arity = Exactly 2; meaning = binary Value.modulo;
      result =
        (fun tys ->
          if tys <> [] && List.for_all (( = ) Ast.Integer) tys then Ast.Integer else Ast.Real) };
    { name = "sqrt"; arity = Exactly 1; result = real;
      meaning = unary (fun a -> Value.Vreal (sqrt (Value.to_float a))) };
    { name = "float"; arity = Exactly 1; result = real;
      meaning = unary Value.real };
    { name = "int"; arity = Exactly 1; result = (fun _ -> Ast.Integer);
      meaning = unary Value.integer };
    { name = "sign"; arity = Exactly 2; result = first; meaning = binary sign } ]

let find name = List.find_opt (fun r -> r.name = name) table

let accepts r k = match r.arity with Exactly n -> k = n | At_least n -> k >= n

let lookup name k = Option.bind (find name) (fun r -> if accepts r k then Some r else None)
