(* The resolved evaluator shared by both interpreters.

   A program is resolved once: each name a program unit mentions maps to
   a frame slot — a formal, a local, a COMMON binding copied in when the
   frame is made, or an implicitly typed scalar — or, in source
   programs, to a PARAMETER constant folded into the code; each
   expression compiles to a closure over a per-processor [env], typed
   int, float or bool where the type is static and boxed otherwise.
   {!Interp} (node programs) and {!Seq_interp} (source programs) add only
   their statement forms; the node-only intrinsics plug in as a hook.

   Bit-identity rules (DESIGN.md 6i): subexpressions evaluate left to
   right, and every flop and mem-op is charged at the point of the
   evaluation where the name-table interpreters this replaced charged
   it, so the counters and the sequence of additions to [pending] are
   unchanged.  A typed closure computes exactly what the boxed [Value]
   operation or {!Intrinsic} meaning computes on the same operands,
   errors included. *)

open Fd_support
open Fd_frontend

exception Return_signal

type binding = Bscalar of Value.t ref | Barray of Storage.array_obj

type clock = { mutable pending : float; flop_cost : float; mem_cost : float }

type env = {
  proc : int;
  nprocs : int;
  strict : bool;
  config : Config.t;
  stats : Stats.t;
  clock : clock;
  mutable frame : binding array;
  mutable globals : binding array;
}

type code = env -> Value.t

type typed =
  | Int of (env -> int)
  | Float of (env -> float)
  | Bool of (env -> bool)
  | Boxed of code

let env ~proc ~nprocs ~strict ~config ~stats =
  { proc; nprocs; strict; config; stats; frame = [||]; globals = [||];
    clock = { pending = 0.0; flop_cost = config.Config.flop; mem_cost = config.Config.mem_op } }

let flop env =
  let c = env.clock in
  c.pending <- c.pending +. c.flop_cost;
  env.stats.Stats.flops <- env.stats.Stats.flops + 1

let mem env =
  let c = env.clock in
  c.pending <- c.pending +. c.mem_cost;
  env.stats.Stats.mem_ops <- env.stats.Stats.mem_ops + 1

(* --- Frames ---------------------------------------------------------------- *)

(* A slot's initial binding, mapped from its {!Frame.kind} once per unit. *)
type init = Actual of int | Global of int | Zero of Value.t | Alloc of Node.array_decl

let init = function
  | Frame.Formal (k, _) -> Actual k
  | Frame.Common j -> Global j
  | Frame.Local_scalar ty -> Zero (Value.zero_of ty)
  | Frame.Local_array ad -> Alloc ad

let inits fr = Array.init (Frame.size fr) (fun i -> init (Frame.kind fr i))

(* A frame; its formals bind [actuals]. *)
let instantiate env inits actuals =
  Array.map
    (function
      | Actual k -> actuals.(k)
      | Global j -> env.globals.(j)
      | Zero v -> Bscalar (ref v)
      | Alloc ad ->
        Barray
          (Storage.alloc ~stats:env.stats ~proc:env.proc ~nprocs:env.nprocs ad.Node.ad_name
             ad.Node.ad_elt ad.Node.ad_layout))
    inits

type unit_code =
  { u_frame : Frame.t; u_arity : int; mutable u_inits : init array; mutable u_body : env -> unit }

let unit_code ~formals ~arrays ~scalars ~is_common =
  { u_frame = Frame.make ~formals ~arrays ~scalars ~is_common; u_arity = List.length formals;
    u_inits = [||]; u_body = ignore }

(* The body is compiled, so the frame has all its slots. *)
let define u body =
  u.u_inits <- inits u.u_frame;
  u.u_body <- body

type scope = {
  unit : unit_code;
  globals : Frame.t;
  units : (string, unit_code) Hashtbl.t;
  params : string -> int option;
  hook : scope -> string -> Ast.expr list -> typed option;
}

(* --- Name resolution ----------------------------------------------------- *)

let slot sc name = Frame.slot sc.unit.u_frame ~common:sc.globals name

(* Static types.  A local or COMMON scalar keeps its initial type on
   every write path ([store]), so an INTEGER one always holds a [Vint];
   an array's elements have its declared type, and sema makes a whole
   array actual's element type the formal's. *)
let kind sc name =
  match Frame.kind sc.unit.u_frame (slot sc name) with
  | Frame.Common j -> Frame.kind sc.globals j
  | k -> k

let scalar_type sc name = match kind sc name with Frame.Local_scalar ty -> Some ty | _ -> None

let int_scalar sc name = scalar_type sc name = Some Ast.Integer

let elt_type sc name =
  match kind sc name with
  | Frame.Local_array ad -> Some ad.Node.ad_elt
  | Frame.Formal (_, elt) -> elt
  | Frame.Common _ | Frame.Local_scalar _ -> None

(* A test oracle's view: the names the unit's frame binds, and what a
   frame binds for a name, resolving it as compiled code would. *)
let names sc = Frame.fold (fun name _ acc -> name :: acc) sc.unit.u_frame []

let slot_kind sc name =
  match init (Frame.kind sc.unit.u_frame (slot sc name)) with
  | Actual k -> Printf.sprintf "formal %d" k
  | Global _ -> "common"
  | Alloc _ -> "array"
  | Zero v ->
    "scalar " ^ (match v with Value.Vint _ -> "integer" | Value.Vreal _ -> "real" | _ -> "logical")

let not_scalar name = Diag.error "array %s used as a scalar" name
let not_array name = Diag.error "scalar %s used as an array" name
let whole_array name = Diag.error "whole array %s used as a value" name

let binding sc name : env -> binding =
  let i = slot sc name in
  fun env -> Array.unsafe_get env.frame i

let scalar_cell sc name : env -> Value.t ref =
  let i = slot sc name in
  fun env -> match Array.unsafe_get env.frame i with Bscalar r -> r | Barray _ -> not_scalar name

let array_obj sc name : env -> Storage.array_obj =
  let i = slot sc name in
  fun env -> match Array.unsafe_get env.frame i with Barray o -> o | Bscalar _ -> not_array name

let var sc name : typed =
  match sc.params name with
  | Some n -> Int (fun _ -> n)
  | None ->
    let i = slot sc name in
    if int_scalar sc name then
      Int
        (fun env ->
          match Array.unsafe_get env.frame i with
          | Bscalar { contents = Value.Vint n } -> n
          | Bscalar _ -> Diag.internal ~pass:"simulate" "INTEGER scalar %s lost its type" name
          | Barray _ -> whole_array name)
    else
      Boxed
        (fun env ->
          match Array.unsafe_get env.frame i with Bscalar r -> !r | Barray _ -> whole_array name)

(* --- Views of a typed closure -------------------------------------------- *)

let boxed = function
  | Int c -> fun env -> Value.Vint (c env)
  | Float c -> fun env -> Value.Vreal (c env)
  | Bool c -> fun env -> Value.of_bool (c env)
  | Boxed c -> c

(* The [Value] coercions, unboxed where the operand's type is static. *)
let as_int = function
  | Int c -> c
  | Float c -> fun env -> int_of_float (c env)
  | t -> let c = boxed t in fun env -> Value.to_int (c env)

let as_float = function
  | Float c -> c
  | Int c -> fun env -> float_of_int (c env)
  | t -> let c = boxed t in fun env -> Value.to_float (c env)

let as_bool = function Bool c -> c | t -> let c = boxed t in fun env -> Value.to_bool (c env)

(* Charge a flop, then evaluate. *)
let charged = function
  | Int c -> Int (fun env -> flop env; c env)
  | Float c -> Float (fun env -> flop env; c env)
  | Bool c -> Bool (fun env -> flop env; c env)
  | Boxed c -> Boxed (fun env -> flop env; c env)

(* An int compared with a boxed value: the boxed side decides the
   comparison's type. *)
let int_vs test vop x (v : Value.t) =
  match v with
  | Value.Vint n -> test (compare x n)
  | Value.Vreal f -> test (Float.compare (float_of_int x) f)
  | Value.Vbool _ -> vop (Value.Vint x) v

(* max/min of one type, which compares as it goes: a comparison cannot
   fail, and the first argument wins a tie. *)
let extremum name cmp cs =
  let better = if name = "max" then fun c -> c > 0 else fun c -> c < 0 in
  match cs with
  | c :: cs ->
    fun env -> List.fold_left (fun acc c -> let v = c env in if better (cmp v acc) then v else acc) (c env) cs
  | [] -> Diag.internal ~pass:"simulate" "intrinsic %s with no arguments" name

(* --- Expressions --------------------------------------------------------- *)

let rec typed sc (e : Ast.expr) : typed =
  match e with
  | Ast.Int_const n -> Int (fun _ -> n)
  | Ast.Real_const f -> Float (fun _ -> f)
  | Ast.Logical_const b -> Bool (fun _ -> b)
  | Ast.Var v -> var sc v
  | Ast.Ref (name, subs) -> element sc name subs
  | Ast.Bin (Ast.And, a, b) ->
    (* short-circuit: the flop is charged after the left operand *)
    let a = bool_expr sc a and b = bool_expr sc b in
    Bool (fun env -> let va = a env in flop env; va && b env)
  | Ast.Bin (Ast.Or, a, b) ->
    let a = bool_expr sc a and b = bool_expr sc b in
    Bool (fun env -> let va = a env in flop env; va || b env)
  | Ast.Bin (op, a, b) -> (
    let a = typed sc a in
    let b = typed sc b in
    match op with
    | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Pow -> arith op a b
    | _ -> compare_op op a b)
  | Ast.Un (Ast.Neg, a) -> (
    match typed sc a with
    | Int c -> Int (fun env -> flop env; 0 - c env)
    | Float c -> Float (fun env -> flop env; 0.0 -. c env)
    | t ->
      let c = boxed t in
      Boxed (fun env -> flop env; Value.neg (c env)))
  | Ast.Un (Ast.Not, a) ->
    let a = bool_expr sc a in
    Bool (fun env -> flop env; not (a env))
  | Ast.Funcall (name, args) -> charged (intrinsic sc name args)

and expr sc e : code = boxed (typed sc e)
and int_expr sc e : env -> int = as_int (typed sc e)
and bool_expr sc e : env -> bool = as_bool (typed sc e)

(* Both operands, then the flop, then the operation. *)
and arith op a b : typed =
  match (op, a, b) with
  | Ast.Add, Int a, Int b -> Int (fun env -> let x = a env in let y = b env in flop env; x + y)
  | Ast.Sub, Int a, Int b -> Int (fun env -> let x = a env in let y = b env in flop env; x - y)
  | Ast.Mul, Int a, Int b -> Int (fun env -> let x = a env in let y = b env in flop env; x * y)
  | Ast.Div, Int a, Int b ->
    Int (fun env -> let x = a env in let y = b env in flop env;
          if y = 0 then Storage.runtime_error "integer division by zero" else x / y)
  | Ast.Pow, Int a, Int b ->
    Int (fun env -> let x = a env in let y = b env in flop env; Value.ipow x y)
  | _, (Float _ as a), ((Int _ | Float _) as b) | _, (Int _ as a), (Float _ as b) ->
    float_arith op (as_float a) (as_float b)
  | _ ->
    (* the type is known only at run time *)
    let f = Value.arith op and a = boxed a and b = boxed b in
    Boxed (fun env -> let x = a env in let y = b env in flop env; f x y)

and float_arith op a b : typed =
  match op with
  | Ast.Add -> Float (fun env -> let x = a env in let y = b env in flop env; x +. y)
  | Ast.Sub -> Float (fun env -> let x = a env in let y = b env in flop env; x -. y)
  | Ast.Mul -> Float (fun env -> let x = a env in let y = b env in flop env; x *. y)
  | Ast.Div -> Float (fun env -> let x = a env in let y = b env in flop env; x /. y)
  | _ -> Float (fun env -> let x = a env in let y = b env in flop env; Float.pow x y)

and compare_op op a b : typed =
  let test = Value.test op and vop = Value.relation op in
  let by a b c = Bool (fun env -> let x = a env in let y = b env in flop env; test (c x y)) in
  match (a, b) with
  | Int a, Int b -> by a b (fun x y -> compare (x : int) y)
  | Int a, Float b -> by a b (fun x y -> Float.compare (float_of_int x) y)
  | Float a, Int b -> by a b (fun x y -> Float.compare x (float_of_int y))
  | Float a, Float b -> by a b Float.compare
  | Int a, Boxed b ->
    Bool (fun env -> let x = a env in let y = b env in flop env; int_vs test vop x y)
  | Boxed a, Int b ->
    (* the mirror image: [compare] is antisymmetric, NaN included *)
    let test c = test (-c) and vop x y = vop y x in
    Bool (fun env -> let x = a env in let y = b env in flop env; int_vs test vop y x)
  | _ ->
    let a = boxed a and b = boxed b in
    Bool (fun env -> let x = a env in let y = b env in flop env; vop x y)

(* An element's flat index: the subscripts are evaluated left to right
   and the mem-op is charged before the rank and bounds checks. *)
and subscripts sc subs : env -> Storage.array_obj -> int =
  match List.map (int_expr sc) subs with
  | [ s1 ] -> fun env o -> let i = s1 env in mem env; Storage.index1 o i
  | [ s1; s2 ] -> fun env o -> let i = s1 env in let j = s2 env in mem env; Storage.index2 o i j
  | [ s1; s2; s3 ] -> fun env o ->
    let i = s1 env in let j = s2 env in let k = s3 env in mem env; Storage.index3 o i j k
  | ss ->
    let ss = Array.of_list ss in
    fun env o -> let idx = Array.map (fun s -> s env) ss in mem env; Storage.flat_index o idx

(* The array is looked up before its subscripts are evaluated. *)
and element sc name subs : typed =
  let obj = array_obj sc name and at = subscripts sc subs in
  match elt_type sc name with
  | Some Ast.Integer ->
    Int (fun env -> let o = obj env in Storage.read_int ~strict:env.strict o (at env o))
  | Some Ast.Real ->
    Float (fun env -> let o = obj env in Storage.read_float ~strict:env.strict o (at env o))
  | _ -> Boxed (fun env -> let o = obj env in Storage.read_flat ~strict:env.strict o (at env o))

(* An intrinsic's body; [typed] charges the call's flop first.  Where
   the arguments' types are static, a typed closure computes what the
   table's meaning computes; otherwise the meaning is applied to the
   arguments, evaluated left to right. *)
and intrinsic sc name args : typed =
  match sc.hook sc name args with
  | Some c -> c
  | None -> (
    let ts = List.map (typed sc) args and k = List.length args in
    let all p = List.for_all p ts in
    match (Intrinsic.lookup name k, name, ts) with
    | None, _, _ -> Boxed (fun _ -> Diag.error "unknown intrinsic %s/%d" name k)
    | Some _, "abs", [ Int a ] -> Int (fun env -> abs (a env))
    | Some _, "abs", [ Float a ] -> Float (fun env -> Float.abs (a env))
    | Some _, "sqrt", [ a ] -> let a = as_float a in Float (fun env -> sqrt (a env))
    | Some _, "mod", [ Int a; Int b ] ->
      Int (fun env -> let x = a env in let y = b env in
            if y = 0 then Storage.runtime_error "mod by zero" else x mod y)
    | Some _, ("max" | "min"), _ when all (function Int _ -> true | _ -> false) ->
      Int (extremum name compare (List.map as_int ts))
    | Some _, ("max" | "min"), _ when all (function Int _ | Float _ -> true | _ -> false) ->
      Float (extremum name Float.compare (List.map as_float ts))
    | Some _, "float", [ a ] -> Float (as_float a)
    | Some _, "int", [ a ] -> Int (as_int a)
    | Some row, _, _ ->
      let cs = List.map boxed ts in
      Boxed (fun env -> row.meaning (List.map (fun c -> c env) cs)))

(* --- Statements shared by both interpreters ------------------------------ *)

let block stmts : env -> unit =
  match stmts with
  | [] -> ignore
  | [ s ] -> s
  | _ ->
    let stmts = Array.of_list stmts in
    fun env ->
      for i = 0 to Array.length stmts - 1 do
        (Array.unsafe_get stmts i) env
      done

(* A scalar store keeps the cell's type ({!Value.stored}). *)
let store c v = c := Value.stored ~into:!c v

(* The right-hand side is evaluated first, then the target's
   subscripts; an array store converts to the element type. *)
let assign sc lhs rhs : env -> unit =
  let rhs = typed sc rhs in
  match (lhs, rhs) with
  | Ast.Var name, (Int _ | Float _)
    when List.mem (scalar_type sc name) [ Some Ast.Integer; Some Ast.Real ] ->
    (* an INTEGER or REAL cell: the number is converted unboxed *)
    let cell = scalar_cell sc name in
    if int_scalar sc name then
      let c = as_int rhs in
      fun env -> let n = c env in mem env; cell env := Value.Vint n
    else
      let c = as_float rhs in
      fun env -> let x = c env in mem env; cell env := Value.Vreal x
  | Ast.Var name, _ ->
    let cell = scalar_cell sc name and rhs = boxed rhs in
    fun env ->
      let v = rhs env in
      mem env;
      store (cell env) v
  | Ast.Ref (name, subs), _ -> (
    let obj = array_obj sc name and at = subscripts sc subs in
    match rhs with
    | Int c -> fun env -> let n = c env in let o = obj env in Storage.write_int o (at env o) n
    | Float c -> fun env -> let x = c env in let o = obj env in Storage.write_float o (at env o) x
    | _ ->
      let rhs = boxed rhs in
      fun env -> let v = rhs env in let o = obj env in Storage.write_flat o (at env o) v)
  | _ ->
    let rhs = boxed rhs in
    fun env -> ignore (rhs env); Diag.error "bad assignment target"

(* The loop variable is stored as assignment stores it. *)
let do_loop sc ~var ~lo ~hi ~step body : env -> unit =
  let lo = int_expr sc lo and hi = int_expr sc hi and cell = scalar_cell sc var in
  let step = Option.map (int_expr sc) step in
  fun env ->
    let l = lo env in
    let h = hi env in
    let st = match step with None -> 1 | Some s -> s env in
    if st = 0 then Storage.runtime_error "zero DO step";
    let cell = cell env in
    let x = ref l in
    while if st > 0 then !x <= h else !x >= h do
      store cell (Value.Vint !x);
      flop env;
      body env;
      x := !x + st
    done

let run_body (u : unit_code) env = try u.u_body env with Return_signal -> ()

(* Whole arrays and scalar variables pass by reference, other
   expressions by value; the actuals are evaluated left to right in the
   caller's frame before the callee's frame is made. *)
let call sc name args : env -> unit =
  match Hashtbl.find_opt sc.units name with
  | None -> fun _ -> Diag.error "call to unknown procedure %s" name
  | Some u when u.u_arity <> List.length args ->
    fun _ -> Diag.error "procedure %s arity mismatch" name
  | Some u ->
    let by_value e = let c = expr sc e in fun env -> Bscalar (ref (c env)) in
    let actuals =
      Array.of_list (List.map (function Ast.Var v -> binding sc v | e -> by_value e) args)
    in
    fun env ->
      let frame = instantiate env u.u_inits (Array.map (fun a -> a env) actuals) in
      let caller = env.frame in
      env.frame <- frame;
      run_body u env;
      env.frame <- caller

(* --- Running ------------------------------------------------------------- *)

let run_main (env : env) ~globals (main : unit_code) =
  env.globals <- instantiate env (inits globals) [||];
  let frame = instantiate env main.u_inits [||] in
  env.frame <- frame;
  run_body main env;
  let t = Hashtbl.create 16 in
  Frame.fold (fun name j () -> Hashtbl.replace t name env.globals.(j)) globals ();
  Frame.fold (fun name i () -> Hashtbl.replace t name frame.(i)) main.u_frame ();
  t

let lookup_array sc (env : env) name =
  match Frame.find sc.unit.u_frame name, Frame.find sc.globals name with
  | Some i, _ -> (match env.frame.(i) with Barray o -> o | Bscalar _ -> not_array name)
  | None, Some j -> (match env.globals.(j) with Barray o -> o | Bscalar _ -> not_array name)
  | None, None -> not_array name