(* The resolved evaluator shared by both interpreters.

   A program is resolved once: each name a program unit mentions maps to
   a frame slot — a formal, a local, a COMMON binding copied in when the
   frame is made, or an implicitly typed scalar — or, in source
   programs, to a PARAMETER constant folded into the code; each
   expression compiles to a closure over a per-processor [env].
   {!Interp} (node programs) and {!Seq_interp} (source programs) add only
   their statement forms; the node-only intrinsics plug in as a hook.

   Bit-identity rules (DESIGN.md 6i): subexpressions evaluate left to
   right, and every flop and mem-op is charged at the point of the
   evaluation where the name-table interpreters this replaced charged
   it, so the counters and the sequence of additions to [pending] are
   unchanged. *)

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
  | Formal
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

let unbound = Bscalar (ref (Value.Vint 0))

let instantiate env fl =
  Array.map
    (function
      | Formal -> unbound
      | Common j -> env.globals.(j)
      | Local_scalar v -> Bscalar (ref v)
      | Local_array ad ->
        Barray
          (Storage.alloc ~proc:env.proc ~nprocs:env.nprocs ad.Node.ad_name ad.Node.ad_elt
             ad.Node.ad_layout))
    fl.inits

type unit_code = { u_layout : frame_layout; u_formals : int array; mutable u_body : env -> unit }

(* A unit's frame binds its formals, then its arrays and scalars that are
   neither formals nor COMMON. *)
let unit_code ~formals ~arrays ~scalars ~is_common =
  let fl = { slots = Hashtbl.create 16; inits = [||] } in
  List.iter (fun f -> declare fl f Formal) formals;
  let local name = not (declared fl name || is_common name) in
  List.iter
    (fun (ad : Node.array_decl) ->
      if local ad.Node.ad_name then declare fl ad.Node.ad_name (Local_array ad))
    arrays;
  List.iter (fun (v, ty) -> if local v then declare fl v (Local_scalar (Value.zero_of ty))) scalars;
  { u_layout = fl; u_formals = Array.of_list (List.map (Hashtbl.find fl.slots) formals);
    u_body = ignore }

let globals ~arrays ~scalars =
  (unit_code ~formals:[] ~arrays ~scalars ~is_common:(fun _ -> false)).u_layout

type scope = {
  unit : unit_code;
  globals : frame_layout;
  units : (string, unit_code) Hashtbl.t;
  params : string -> int option;
  hook : scope -> string -> Ast.expr list -> code option;
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

let not_scalar name = Diag.error "array %s used as a scalar" name
let not_array name = Diag.error "scalar %s used as an array" name

let binding sc name : env -> binding =
  let i = slot sc name in
  fun env -> Array.unsafe_get env.frame i

let scalar_cell sc name : env -> Value.t ref =
  let i = slot sc name in
  fun env -> match Array.unsafe_get env.frame i with Bscalar r -> r | Barray _ -> not_scalar name

let array_obj sc name : env -> Storage.array_obj =
  let i = slot sc name in
  fun env -> match Array.unsafe_get env.frame i with Barray o -> o | Bscalar _ -> not_array name

let var sc name : code =
  match sc.params name with
  | Some n ->
    let v = Value.Vint n in
    fun _ -> v
  | None -> (
    let i = slot sc name in
    fun env ->
      match Array.unsafe_get env.frame i with
      | Bscalar r -> !r
      | Barray _ -> Diag.error "whole array %s used as a value" name)

(* --- Expressions --------------------------------------------------------- *)

let rec expr sc (e : Ast.expr) : code =
  let const v = fun _ -> v in
  match e with
  | Ast.Int_const n -> const (Value.Vint n)
  | Ast.Real_const f -> const (Value.Vreal f)
  | Ast.Logical_const b -> const (Value.of_bool b)
  | Ast.Var v -> var sc v
  | Ast.Ref (name, subs) -> element sc name subs
  | Ast.Bin (Ast.And, a, b) ->
    (* short-circuit: the flop is charged after the left operand *)
    let a = bool_expr sc a and b = bool_expr sc b in
    fun env ->
      let va = a env in
      flop env;
      Value.of_bool (va && b env)
  | Ast.Bin (Ast.Or, a, b) ->
    let a = bool_expr sc a and b = bool_expr sc b in
    fun env ->
      let va = a env in
      flop env;
      Value.of_bool (va || b env)
  | Ast.Bin (op, a, b) -> (
    let a = expr sc a and b = expr sc b in
    let strict2 f env =
      let x = a env in
      let y = b env in
      flop env;
      f x y
    in
    let cmp test = strict2 (fun x y -> Value.of_bool (test (Value.compare_num x y))) in
    match op with
    | Ast.Add -> strict2 Value.add
    | Ast.Sub -> strict2 Value.sub
    | Ast.Mul -> strict2 Value.mul
    | Ast.Div -> strict2 Value.div
    | Ast.Pow -> strict2 Value.pow
    | Ast.Eq -> strict2 (fun x y -> Value.of_bool (Value.equal x y))
    | Ast.Ne -> strict2 (fun x y -> Value.of_bool (not (Value.equal x y)))
    | Ast.Lt -> cmp (fun c -> c < 0)
    | Ast.Le -> cmp (fun c -> c <= 0)
    | Ast.Gt -> cmp (fun c -> c > 0)
    | Ast.Ge -> cmp (fun c -> c >= 0)
    | Ast.And | Ast.Or -> assert false (* matched above *))
  | Ast.Un (Ast.Neg, a) ->
    let a = expr sc a and zero = Value.Vint 0 in
    fun env ->
      flop env;
      Value.sub zero (a env)
  | Ast.Un (Ast.Not, a) ->
    let a = bool_expr sc a in
    fun env ->
      flop env;
      Value.of_bool (not (a env))
  | Ast.Funcall (name, args) ->
    let body = intrinsic sc name args in
    fun env ->
      flop env;
      body env

and int_expr sc (e : Ast.expr) : env -> int =
  match e with
  | Ast.Int_const n -> fun _ -> n
  | _ ->
    let c = expr sc e in
    fun env -> Value.to_int (c env)

and bool_expr sc e : env -> bool =
  let c = expr sc e in
  fun env -> Value.to_bool (c env)

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
and element sc name subs : code =
  let obj = array_obj sc name and at = subscripts sc subs in
  fun env ->
    let o = obj env in
    Storage.read_flat ~strict:env.strict o (at env o)

(* An intrinsic's body; [expr] charges the call's flop first. *)
and intrinsic sc name args : code =
  match sc.hook sc name args with
  | Some c -> c
  | None -> (
    match (name, List.map (expr sc) args) with
    | "abs", [ a ] -> (
      fun env ->
        match a env with
        | Value.Vint i -> Value.Vint (abs i)
        | Value.Vreal f -> Value.Vreal (Float.abs f)
        | Value.Vbool _ -> Diag.error "abs of logical")
    | "sqrt", [ a ] -> fun env -> Value.Vreal (sqrt (Value.to_float (a env)))
    | "mod", [ a; b ] -> (
      fun env ->
        let x = a env in
        let y = b env in
        match (x, y) with
        | Value.Vint x, Value.Vint y ->
          if y = 0 then Diag.error "mod by zero" else Value.Vint (x mod y)
        | x, y -> Value.Vreal (Float.rem (Value.to_float x) (Value.to_float y)))
    | "max", (_ :: _ :: _ as cs) -> extremum cs (fun c -> c > 0)
    | "min", (_ :: _ :: _ as cs) -> extremum cs (fun c -> c < 0)
    | "float", [ a ] -> fun env -> Value.Vreal (Value.to_float (a env))
    | "int", [ a ] -> fun env -> Value.Vint (Value.to_int (a env))
    | "sign", [ a; b ] -> (
      fun env ->
        let m = Value.to_float (a env) in
        let s = Value.to_float (b env) in
        let r = if s >= 0.0 then Float.abs m else -.Float.abs m in
        (* the first argument is evaluated again, costs included, for
           its type *)
        match a env with Value.Vint _ -> Value.Vint (int_of_float r) | _ -> Value.Vreal r)
    | _ ->
      let n = List.length args in
      fun _ -> Diag.error "unknown intrinsic %s/%d" name n)

(* max/min: every argument is evaluated before any is compared. *)
and extremum cs better : code =
  let cs = Array.of_list cs in
  fun env ->
    let vs = Array.map (fun c -> c env) cs in
    let acc = ref vs.(0) in
    for i = 1 to Array.length vs - 1 do
      if better (Value.compare_num vs.(i) !acc) then acc := vs.(i)
    done;
    !acc

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

(* Assignment keeps a scalar cell's type, and the store converts to an
   array's element type; the right-hand side is evaluated first, then the
   target's subscripts. *)
let assign sc lhs rhs : env -> unit =
  let rhs = expr sc rhs in
  match lhs with
  | Ast.Var name ->
    let cell = scalar_cell sc name in
    fun env ->
      let v = rhs env in
      mem env;
      let c = cell env in
      c :=
        (match (!c, v) with
        | Value.Vint _, Value.Vint _ | Value.Vreal _, Value.Vreal _ | Value.Vbool _, _ -> v
        | Value.Vint _, _ -> Value.Vint (Value.to_int v)
        | Value.Vreal _, _ -> Value.Vreal (Value.to_float v))
  | Ast.Ref (name, subs) ->
    let obj = array_obj sc name and at = subscripts sc subs in
    fun env ->
      let v = rhs env in
      let o = obj env in
      let f = at env o in
      Storage.write_flat o f v
  | _ -> fun env -> ignore (rhs env); Diag.error "bad assignment target"

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
      cell := Value.Vint !x;
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
  | Some u when Array.length u.u_formals <> List.length args ->
    fun _ -> Diag.error "procedure %s arity mismatch" name
  | Some u ->
    let by_value e = let c = expr sc e in fun env -> Bscalar (ref (c env)) in
    let actuals =
      Array.of_list (List.map (function Ast.Var v -> binding sc v | e -> by_value e) args)
    in
    fun env ->
      let vals = Array.map (fun a -> a env) actuals in
      let frame = instantiate env u.u_layout in
      Array.iteri (fun k slot -> frame.(slot) <- vals.(k)) u.u_formals;
      let caller = env.frame in
      env.frame <- frame;
      run_body u env;
      env.frame <- caller

(* --- Running ------------------------------------------------------------- *)

let run_main (env : env) ~globals (main : unit_code) =
  env.globals <- instantiate env globals;
  let frame = instantiate env main.u_layout in
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
