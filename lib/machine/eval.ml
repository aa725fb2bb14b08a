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
   operation computes on the same operands, errors included. *)

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

(* --- Frame layouts ------------------------------------------------------- *)

type init =
  | Formal of int * Ast.dtype option  (* the actual's position; a formal array's element type *)
  | Common of int
  | Local_array of Node.array_decl
  | Local_scalar of Value.t

(* Slots are numbered in order of declaration; a name keeps its first. *)
type frame_layout = { slots : (string, int) Hashtbl.t; mutable inits : init array }

let declared fl name = Hashtbl.mem fl.slots name

let declare fl name init =
  if not (declared fl name) then begin
    Hashtbl.replace fl.slots name (Array.length fl.inits);
    fl.inits <- Array.append fl.inits [| init |]
  end

(* A frame; its formals bind [actuals]. *)
let instantiate env fl actuals =
  Array.map
    (function
      | Formal (k, _) -> actuals.(k)
      | Common j -> env.globals.(j)
      | Local_scalar v -> Bscalar (ref v)
      | Local_array ad ->
        Barray
          (Storage.alloc ~proc:env.proc ~nprocs:env.nprocs ad.Node.ad_name ad.Node.ad_elt
             ad.Node.ad_layout))
    fl.inits

type unit_code = { u_layout : frame_layout; u_arity : int; mutable u_body : env -> unit }

(* A unit's frame binds its formals (a repeated one, its last actual),
   then its arrays and scalars that are neither formals nor COMMON. *)
let unit_code ~formals ~arrays ~scalars ~is_common =
  let fl = { slots = Hashtbl.create 16; inits = [||] } in
  let elt f =
    Option.map (fun ad -> ad.Node.ad_elt) (List.find_opt (fun ad -> ad.Node.ad_name = f) arrays)
  in
  List.iteri
    (fun k f ->
      match Hashtbl.find_opt fl.slots f with
      | Some i -> fl.inits.(i) <- Formal (k, elt f)
      | None -> declare fl f (Formal (k, elt f)))
    formals;
  let local name = not (declared fl name || is_common name) in
  List.iter
    (fun (ad : Node.array_decl) ->
      if local ad.Node.ad_name then declare fl ad.Node.ad_name (Local_array ad))
    arrays;
  List.iter (fun (v, ty) -> if local v then declare fl v (Local_scalar (Value.zero_of ty))) scalars;
  { u_layout = fl; u_arity = List.length formals; u_body = ignore }

let globals ~arrays ~scalars =
  (unit_code ~formals:[] ~arrays ~scalars ~is_common:(fun _ -> false)).u_layout

type scope = {
  unit : unit_code;
  globals : frame_layout;
  units : (string, unit_code) Hashtbl.t;
  params : string -> int option;
  hook : scope -> string -> Ast.expr list -> typed option;
}

(* --- Name resolution ----------------------------------------------------- *)

let implicit_zero name =
  if String.length name > 0 && name.[0] >= 'i' && name.[0] <= 'n' then Value.Vint 0
  else Value.Vreal 0.0

(* The unit's own names, then COMMON, then a fresh implicitly typed
   scalar of the frame (Fortran style). *)
let slot sc name =
  let fl = sc.unit.u_layout in
  if not (declared fl name) then
    declare fl name
      (match Hashtbl.find_opt sc.globals.slots name with
      | Some j -> Common j
      | None -> Local_scalar (implicit_zero name));
  Hashtbl.find fl.slots name

(* Static types.  A local or COMMON scalar keeps its initial type on
   every write path ([store]), so an INTEGER one always holds a [Vint];
   an array's elements have its declared type, and sema makes a whole
   array actual's element type the formal's. *)
let init_of sc name =
  match sc.unit.u_layout.inits.(slot sc name) with Common j -> sc.globals.inits.(j) | i -> i

let scalar_zero sc name =
  match init_of sc name with Local_scalar ((Value.Vint _ | Value.Vreal _) as z) -> Some z | _ -> None

let int_scalar sc name = scalar_zero sc name = Some (Value.Vint 0)

let elt_type sc name =
  match init_of sc name with
  | Local_array ad -> Some ad.Node.ad_elt
  | Formal (_, elt) -> elt
  | Common _ | Local_scalar _ -> None

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

(* A comparison as a test of a [compare] result, and on boxed values.
   Both agree with [Value.compare_num], and with [Value.equal] on
   numbers, since [Float.equal x y] is [Float.compare x y = 0]. *)
let relation op : (int -> bool) * (Value.t -> Value.t -> bool) =
  let by test = (test, fun x y -> test (Value.compare_num x y)) in
  match op with
  | Ast.Eq -> ((fun c -> c = 0), Value.equal)
  | Ast.Ne -> ((fun c -> c <> 0), fun x y -> not (Value.equal x y))
  | Ast.Lt -> by (fun c -> c < 0)
  | Ast.Le -> by (fun c -> c <= 0)
  | Ast.Gt -> by (fun c -> c > 0)
  | _ -> by (fun c -> c >= 0)

(* An int compared with a boxed value: the boxed side decides the
   comparison's type. *)
let int_vs test vop x (v : Value.t) =
  match v with
  | Value.Vint n -> test (compare x n)
  | Value.Vreal f -> test (Float.compare (float_of_int x) f)
  | Value.Vbool _ -> vop (Value.Vint x) v

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
      let c = boxed t and zero = Value.Vint 0 in
      Boxed (fun env -> flop env; Value.sub zero (c env)))
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
          if y = 0 then Diag.error "integer division by zero" else x / y)
  | _, (Float _ as a), ((Int _ | Float _) as b) | _, (Int _ as a), (Float _ as b) ->
    float_arith op (as_float a) (as_float b)
  | _ ->
    (* the type is known only at run time, as is [**] of two ints *)
    let f =
      match op with
      | Ast.Add -> Value.add
      | Ast.Sub -> Value.sub
      | Ast.Mul -> Value.mul
      | Ast.Div -> Value.div
      | _ -> Value.pow
    in
    let a = boxed a and b = boxed b in
    Boxed (fun env -> let x = a env in let y = b env in flop env; f x y)

and float_arith op a b : typed =
  match op with
  | Ast.Add -> Float (fun env -> let x = a env in let y = b env in flop env; x +. y)
  | Ast.Sub -> Float (fun env -> let x = a env in let y = b env in flop env; x -. y)
  | Ast.Mul -> Float (fun env -> let x = a env in let y = b env in flop env; x *. y)
  | Ast.Div -> Float (fun env -> let x = a env in let y = b env in flop env; x /. y)
  | _ -> Float (fun env -> let x = a env in let y = b env in flop env; Float.pow x y)

and compare_op op a b : typed =
  let test, vop = relation op in
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

(* An intrinsic's body; [typed] charges the call's flop first. *)
and intrinsic sc name args : typed =
  match sc.hook sc name args with
  | Some c -> c
  | None -> (
    match (name, List.map (typed sc) args) with
    | "abs", [ Int a ] -> Int (fun env -> abs (a env))
    | "abs", [ Float a ] -> Float (fun env -> Float.abs (a env))
    | "abs", [ a ] -> (
      let a = boxed a in
      Boxed
        (fun env ->
          match a env with
          | Value.Vint i -> Value.Vint (abs i)
          | Value.Vreal f -> Value.Vreal (Float.abs f)
          | Value.Vbool _ -> Diag.error "abs of logical"))
    | "sqrt", [ a ] -> let a = as_float a in Float (fun env -> sqrt (a env))
    | "mod", [ Int a; Int b ] ->
      Int (fun env -> let x = a env in let y = b env in
            if y = 0 then Diag.error "mod by zero" else x mod y)
    | "mod", [ a; b ] -> (
      let a = boxed a and b = boxed b in
      Boxed
        (fun env ->
          let x = a env in
          let y = b env in
          match (x, y) with
          | Value.Vint x, Value.Vint y ->
            if y = 0 then Diag.error "mod by zero" else Value.Vint (x mod y)
          | x, y -> Value.Vreal (Float.rem (Value.to_float x) (Value.to_float y))))
    | "max", (_ :: _ :: _ as ts) -> extremum ts (fun c -> c > 0)
    | "min", (_ :: _ :: _ as ts) -> extremum ts (fun c -> c < 0)
    | "float", [ a ] -> Float (as_float a)
    | "int", [ a ] -> Int (as_int a)
    | "sign", [ a; b ] -> (
      let a = boxed a and b = boxed b in
      Boxed
        (fun env ->
          let m = Value.to_float (a env) in
          let s = Value.to_float (b env) in
          let r = if s >= 0.0 then Float.abs m else -.Float.abs m in
          (* the first argument is evaluated again, costs included, for
             its type *)
          match a env with Value.Vint _ -> Value.Vint (int_of_float r) | _ -> Value.Vreal r))
    | _ ->
      let n = List.length args in
      Boxed (fun _ -> Diag.error "unknown intrinsic %s/%d" name n))

(* max/min: every argument is evaluated before any is compared; over
   ints or over floats a comparison cannot fail, so those compare as
   they go. *)
and extremum ts better : typed =
  let fold cmp cs env =
    List.fold_left
      (fun acc c -> let v = c env in if better (cmp v acc) then v else acc)
      ((List.hd cs) env) (List.tl cs)
  in
  let ints = List.filter_map (function Int c -> Some c | _ -> None) ts
  and floats = List.filter_map (function Float c -> Some c | _ -> None) ts in
  if List.compare_lengths ints ts = 0 then Int (fold compare ints)
  else if List.compare_lengths floats ts = 0 then Float (fold Float.compare floats)
  else
    let cs = List.map boxed ts in
    Boxed
      (fun env ->
        let vs = List.map (fun c -> c env) cs in
        List.fold_left
          (fun acc v -> if better (Value.compare_num v acc) then v else acc)
          (List.hd vs) (List.tl vs))

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

(* A scalar store keeps the cell's type: an INTEGER or REAL cell
   converts, a LOGICAL one takes the value as it is. *)
let store c v =
  c :=
    match (!c, v) with
    | Value.Vint _, Value.Vint _ | Value.Vreal _, Value.Vreal _ | Value.Vbool _, _ -> v
    | Value.Vint _, _ -> Value.Vint (Value.to_int v)
    | Value.Vreal _, _ -> Value.Vreal (Value.to_float v)

(* The right-hand side is evaluated first, then the target's
   subscripts; an array store converts to the element type. *)
let assign sc lhs rhs : env -> unit =
  let rhs = typed sc rhs in
  match (lhs, rhs) with
  | Ast.Var name, (Int _ | Float _) when scalar_zero sc name <> None ->
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
    if st = 0 then Diag.error "zero DO step";
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
      let frame = instantiate env u.u_layout (Array.map (fun a -> a env) actuals) in
      let caller = env.frame in
      env.frame <- frame;
      run_body u env;
      env.frame <- caller

(* --- Running ------------------------------------------------------------- *)

let run_main (env : env) ~globals (main : unit_code) =
  env.globals <- instantiate env globals [||];
  let frame = instantiate env main.u_layout [||] in
  env.frame <- frame;
  run_body main env;
  let t = Hashtbl.create 16 in
  Hashtbl.iter (fun name j -> Hashtbl.replace t name env.globals.(j)) globals.slots;
  Hashtbl.iter (fun name i -> Hashtbl.replace t name frame.(i)) main.u_layout.slots;
  t

let lookup_array sc (env : env) name =
  match Hashtbl.find_opt sc.unit.u_layout.slots name, Hashtbl.find_opt sc.globals.slots name with
  | Some i, _ -> (match env.frame.(i) with Barray o -> o | Bscalar _ -> not_array name)
  | None, Some j -> (match env.globals.(j) with Barray o -> o | Bscalar _ -> not_array name)
  | None, None -> not_array name