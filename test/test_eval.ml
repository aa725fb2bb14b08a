(* The shared resolved evaluator ({!Eval}) against native OCaml
   arithmetic, Storage validity against its per-element definition, and
   the simulator's run-time checks on message peers and [owner$].

   Both interpreters evaluate expressions through {!Eval}, so a bug there
   would show identically on both sides of the simulator-vs-sequential
   oracle; the property below checks it against an independent
   tree-walking evaluator that also counts flops and mem-ops and replays
   their costs in order. *)

open Fd_support
open Fd_frontend
open Fd_machine

let prop ?(count = 400) ?print name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ?print ~name gen f)

(* --- Random cases ---------------------------------------------------------- *)

(* Names: integer i, real x, logical l, PARAMETER np, arrays a(1:4)
   real, ka(1:4) integer and la(1:4) logical, and the formal f, bound to
   an INTEGER actual in one run and to a REAL actual in another.
   Subscripts may leave 1..4; integer division and mod may divide by
   zero; logical operands reach arithmetic and comparisons; both
   evaluators must then fail. *)
let i0 = 3
let x0 = 2.5
let np = 7
let avals = [| 0.5; -1.25; 3.0; 4.75 |]
let kvals = [| 5; -2; 0; 7 |]
let lvals = [| true; false; true; false |]

let gen_expr : Ast.expr QCheck2.Gen.t =
  let open QCheck2.Gen in
  let arith = oneofl [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div ] in
  let sub =
    oneof [ map (fun n -> Ast.Int_const n) (int_range 0 5); return (Ast.Var "i") ]
  in
  let rec int_e d =
    let leaf =
      oneof
        [ map (fun n -> Ast.Int_const n) (int_range (-9) 9);
          return (Ast.Var "i"); return (Ast.Var "np");
          map (fun s -> Ast.Ref ("ka", [ s ])) sub ]
    in
    if d = 0 then leaf
    else
      let s = int_e (d - 1) in
      oneof
        [ leaf;
          map3 (fun op a b -> Ast.Bin (op, a, b)) arith s s;
          map2 (fun a k -> Ast.Bin (Ast.Pow, a, Ast.Int_const k)) s (int_range (-1) 3);
          map (fun a -> Ast.Un (Ast.Neg, a)) s;
          map2 (fun a b -> Ast.Funcall ("mod", [ a; b ])) s s;
          map (fun a -> Ast.Funcall ("abs", [ a ])) s;
          map (fun a -> Ast.Funcall ("int", [ a ])) (num_e (d - 1));
          map2 (fun f args -> Ast.Funcall (f, args)) (oneofl [ "max"; "min" ])
            (list_size (int_range 2 3) s);
          map2 (fun a b -> Ast.Funcall ("sign", [ a; b ])) s (num_e (d - 1)) ]
  and num_e d =
    let leaf =
      oneof
        [ int_e 0;
          map (fun f -> Ast.Real_const f) (float_range (-8.0) 8.0);
          return (Ast.Var "x"); return (Ast.Var "f");
          map (fun s -> Ast.Ref ("a", [ s ])) (int_e 0) ]
    in
    if d = 0 then leaf
    else
      let s = num_e (d - 1) in
      oneof
        [ leaf; int_e d;
          map3 (fun op a b -> Ast.Bin (op, a, b)) arith s s;
          map2 (fun a b -> Ast.Bin (Ast.Pow, a, b)) s s;
          map (fun a -> Ast.Un (Ast.Neg, a)) s;
          map2 (fun a b -> Ast.Funcall ("mod", [ a; b ])) s s;
          map (fun a -> Ast.Funcall ("abs", [ a ])) s;
          map (fun a -> Ast.Funcall ("sqrt", [ a ])) s;
          map (fun a -> Ast.Funcall ("float", [ a ])) s;
          map2 (fun a b -> Ast.Funcall ("sign", [ a; b ])) s s;
          map2 (fun f args -> Ast.Funcall (f, args)) (oneofl [ "max"; "min" ])
            (list_size (int_range 2 4) s);
          map (fun s -> Ast.Ref ("a", [ s ])) (int_e (d - 1)) ]
  and bool_e d =
    let leaf =
      oneof
        [ map (fun b -> Ast.Logical_const b) bool; return (Ast.Var "l");
          map (fun s -> Ast.Ref ("la", [ s ])) sub ]
    in
    if d = 0 then leaf
    else
      let s = bool_e (d - 1) and n = num_e (d - 1) in
      let operand = frequency [ (4, n); (1, s) ] in
      let rel = oneofl [ Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge; Ast.Eq; Ast.Ne ] in
      (* an int against a boxed real, often one it truncates to *)
      let int_side = oneof [ int_e (d - 1); map (fun n -> Ast.Int_const n) (int_range 1 3) ] in
      let boxed_side = oneofl [ Ast.Var "x"; Ast.Var "f" ] in
      oneof
        [ leaf;
          map3 (fun op a b -> Ast.Bin (op, a, b)) rel operand operand;
          map3 (fun op a b -> Ast.Bin (op, a, b)) rel int_side boxed_side;
          map3 (fun op a b -> Ast.Bin (op, a, b)) rel boxed_side int_side;
          map3 (fun op a b -> Ast.Bin (op, a, b)) (oneofl [ Ast.And; Ast.Or ]) s s;
          map (fun a -> Ast.Un (Ast.Not, a)) s ]
  in
  int_range 0 4 >>= fun d -> oneof [ num_e d; bool_e d ]

(* A case: an optional DO loop [do v = 1, k] with an empty body, then
   either an expression or an assignment of one, which reads back its
   target. *)
type case = { pre : (string * int) option; lhs : Ast.expr option; rhs : Ast.expr }

let gen_case : case QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* pre = opt (pair (oneofl [ "i"; "x"; "l"; "f" ]) (int_range 0 3)) in
  let* lhs =
    opt
      (oneof
         [ map (fun v -> Ast.Var v) (oneofl [ "i"; "x"; "l"; "f" ]);
           map2 (fun a s -> Ast.Ref (a, [ Ast.Int_const s ])) (oneofl [ "a"; "ka"; "la" ])
             (int_range 0 5) ])
  in
  let* rhs = gen_expr in
  return { pre; lhs; rhs }

let print_case c =
  let e = Fmt.str "%a" Ast_printer.pp_expr in
  Fmt.str "%s%s%s"
    (match c.pre with Some (v, k) -> Fmt.str "do %s = 1, %d; " v k | None -> "")
    (match c.lhs with Some l -> e l ^ " = " | None -> "")
    (e c.rhs)

(* --- The native oracle ---------------------------------------------------- *)

type nv = I of int | R of float | B of bool

exception Fails

let config = Config.ipsc860 ~nprocs:1 ()

(* Evaluate with native OCaml arithmetic, counting flops and mem-ops and
   adding their costs to [pending] in evaluation order.  [f] is the
   formal's actual: the INTEGER or the REAL one. *)
let native ~f_real c =
  let flops = ref 0 and mems = ref 0 and pending = ref 0.0 in
  let flop () = incr flops; pending := !pending +. config.Config.flop in
  let mem () = incr mems; pending := !pending +. config.Config.mem_op in
  let f = function I n -> float_of_int n | R x -> x | B _ -> raise Fails in
  let i = function I n -> n | R x -> int_of_float x | B _ -> raise Fails in
  let b = function B v -> v | _ -> raise Fails in
  let cmp x y = match (x, y) with I m, I n -> compare m n | _ -> compare (f x) (f y) in
  let vars = Hashtbl.create 4 in
  List.iter (fun (v, x) -> Hashtbl.replace vars v x)
    [ ("i", I i0); ("x", R x0); ("l", B true); ("f", if f_real then R x0 else I i0) ];
  (* a store keeps a scalar's type; a LOGICAL scalar takes any value *)
  let store v x =
    Hashtbl.replace vars v
      (match (Hashtbl.find vars v, x) with
      | I _, _ -> I (i x)
      | R _, _ -> R (f x)
      | B _, _ -> x)
  in
  let element arr k =
    if k < 1 || k > 4 then raise Fails;
    match arr with
    | "a" -> R avals.(k - 1)
    | "ka" -> I kvals.(k - 1)
    | _ -> B lvals.(k - 1)
  in
  let rec ev = function
    | Ast.Int_const n -> I n
    | Ast.Real_const x -> R x
    | Ast.Logical_const v -> B v
    | Ast.Var "np" -> I np
    | Ast.Var v -> Hashtbl.find vars v
    | Ast.Ref (arr, [ s ]) ->
      let k = i (ev s) in
      mem ();
      element arr k
    | Ast.Bin (Ast.And, x, y) -> let vx = b (ev x) in flop (); B (vx && b (ev y))
    | Ast.Bin (Ast.Or, x, y) -> let vx = b (ev x) in flop (); B (vx || b (ev y))
    | Ast.Bin (op, x, y) -> (
      let vx = ev x in
      let vy = ev y in
      flop ();
      match (op, vx, vy) with
      | Ast.Add, I m, I n -> I (m + n)
      | Ast.Sub, I m, I n -> I (m - n)
      | Ast.Mul, I m, I n -> I (m * n)
      | Ast.Div, I _, I 0 -> raise Fails
      | Ast.Div, I m, I n -> I (m / n)
      | Ast.Pow, I m, I n ->
        let r = ref 1 in
        for _ = 1 to abs n do r := !r * m done;
        (* a negative power is 1 / m ** |n| in integer arithmetic *)
        if n >= 0 then I !r else if !r = 0 then raise Fails else I (1 / !r)
      | Ast.Add, _, _ -> R (f vx +. f vy)
      | Ast.Sub, _, _ -> R (f vx -. f vy)
      | Ast.Mul, _, _ -> R (f vx *. f vy)
      | Ast.Div, _, _ -> R (f vx /. f vy)
      | Ast.Pow, _, _ -> R (Float.pow (f vx) (f vy))
      | Ast.Eq, B p, B q -> B (p = q)
      | Ast.Ne, B p, B q -> B (p <> q)
      | Ast.Eq, I m, I n -> B (m = n)
      | Ast.Ne, I m, I n -> B (m <> n)
      | Ast.Eq, _, _ -> B (Float.equal (f vx) (f vy))
      | Ast.Ne, _, _ -> B (not (Float.equal (f vx) (f vy)))
      | Ast.Lt, _, _ -> B (cmp vx vy < 0)
      | Ast.Le, _, _ -> B (cmp vx vy <= 0)
      | Ast.Gt, _, _ -> B (cmp vx vy > 0)
      | Ast.Ge, _, _ -> B (cmp vx vy >= 0)
      | (Ast.And | Ast.Or), _, _ -> assert false)
    (* negation is a subtraction from integer zero: -(0.0) is 0.0 *)
    | Ast.Un (Ast.Neg, x) -> flop (); (match ev x with I n -> I (0 - n) | v -> R (0.0 -. f v))
    | Ast.Un (Ast.Not, x) -> flop (); B (not (b (ev x)))
    | Ast.Funcall (name, args) -> (
      flop ();
      match (name, args) with
      | "abs", [ x ] -> (match ev x with I n -> I (abs n) | v -> R (Float.abs (f v)))
      | "sqrt", [ x ] -> R (sqrt (f (ev x)))
      | "float", [ x ] -> R (f (ev x))
      | "int", [ x ] -> I (i (ev x))
      | "mod", [ x; y ] -> (
        let vx = ev x in
        let vy = ev y in
        match (vx, vy) with
        | I _, I 0 -> raise Fails
        | I m, I n -> I (m mod n)
        | _ -> R (Float.rem (f vx) (f vy)))
      | "sign", [ x; y ] -> (
        (* the first argument's type is the result's *)
        let vx = ev x in
        let nonneg = f (ev y) >= 0.0 in
        match vx with
        | I m -> I (if nonneg then abs m else -abs m)
        | v -> R (if nonneg then Float.abs (f v) else -.Float.abs (f v)))
      | ("max" | "min"), _ ->
        (* all arguments first, then the first strict improvement wins;
           REAL if any argument is *)
        let vs = List.map ev args in
        let better c = if name = "max" then c > 0 else c < 0 in
        let r =
          List.fold_left (fun acc v -> if better (cmp v acc) then v else acc) (List.hd vs)
            (List.tl vs)
        in
        if List.exists (function R _ -> true | _ -> false) vs then R (f r) else r
      | _ -> raise Fails)
    | _ -> raise Fails
  in
  let run () =
    (match c.pre with
    | Some (v, k) -> for n = 1 to k do store v (I n); flop () done
    | None -> ());
    let x = ev c.rhs in
    match c.lhs with
    | None -> (x, (!flops, !mems, !pending))
    | Some (Ast.Var v) -> mem (); store v x; (Hashtbl.find vars v, (!flops, !mems, !pending))
    | Some (Ast.Ref (arr, [ Ast.Int_const k ])) ->
      mem ();
      let stored =
        match element arr k with I _ -> I (i x) | R _ -> R (f x) | B _ -> B (b x)
      in
      (stored, (!flops, !mems, !pending))
    | Some _ -> raise Fails
  in
  match run () with r -> Some r | exception Fails -> None

(* --- The evaluator under test --------------------------------------------- *)

(* The case runs in subroutine [s(f)], called from a main program whose
   INTEGER or REAL local is the actual. *)
let evaluate ~f_real c =
  let layout = Layout.replicated [ (1, 4) ] in
  let arr name elt = { Node.ad_name = name; ad_elt = elt; ad_layout = layout } in
  let s =
    Eval.unit_code ~formals:[ "f" ]
      ~arrays:[ arr "a" Ast.Real; arr "ka" Ast.Integer; arr "la" Ast.Logical ]
      ~scalars:[ ("i", Ast.Integer); ("x", Ast.Real); ("l", Ast.Logical) ]
      ~is_common:(fun _ -> false)
  in
  let main =
    Eval.unit_code ~formals:[] ~arrays:[] ~scalars:[ ("mi", Ast.Integer); ("mx", Ast.Real) ]
      ~is_common:(fun _ -> false)
  in
  let globals = Frame.common ~arrays:[] ~scalars:[] in
  let units = Hashtbl.create 1 in
  Hashtbl.replace units "s" s;
  let scope u =
    { Eval.unit = u; globals; units;
      params = (fun n -> if n = "np" then Some np else None);
      hook = (fun _ _ _ -> None) }
  in
  let sc = scope s and scm = scope main in
  let pre =
    match c.pre with
    | Some (v, k) ->
      Eval.do_loop sc ~var:v ~lo:(Ast.Int_const 1) ~hi:(Ast.Int_const k) ~step:None ignore
    | None -> ignore
  in
  let counters (env : Eval.env) =
    (env.Eval.stats.Stats.flops, env.Eval.stats.Stats.mem_ops, env.Eval.clock.Eval.pending)
  in
  let run =
    match c.lhs with
    | None -> let e = Eval.expr sc c.rhs in fun env -> let v = e env in (v, counters env)
    | Some lhs ->
      let st = Eval.assign sc lhs c.rhs and back = Eval.expr sc lhs in
      fun env -> st env; let n = counters env in (back env, n)
  in
  let cell = Eval.scalar_cell sc and obj = Eval.array_obj sc in
  let ci = cell "i" and cx = cell "x" and cl = cell "l" in
  let result = ref None in
  Eval.define s
    (fun env ->
      ci env := Value.Vint i0;
      cx env := Value.Vreal x0;
      cl env := Value.Vbool true;
      let fill name v = Array.iteri (fun k x -> Storage.write (obj name env) [| k + 1 |] (v x)) in
      fill "a" (fun x -> Value.Vreal x) avals;
      fill "ka" (fun n -> Value.Vint n) kvals;
      fill "la" Value.of_bool lvals;
      result := match pre env; run env with r -> Some r | exception Diag.Compile_error _ -> None);
  let actual = if f_real then "mx" else "mi" in
  let mi = Eval.scalar_cell scm "mi" and mx = Eval.scalar_cell scm "mx" in
  let call = Eval.call scm "s" [ Ast.Var actual ] in
  Eval.define main
    (fun env ->
      mi env := Value.Vint i0;
      mx env := Value.Vreal x0;
      call env);
  let env = Eval.env ~proc:0 ~nprocs:1 ~strict:false ~config ~stats:(Stats.create 1) in
  ignore (Eval.run_main env ~globals main);
  !result

let same_value nv (v : Value.t) =
  match (nv, v) with
  | I m, Value.Vint n -> m = n
  | R x, Value.Vreal y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
                          || (Float.is_nan x && Float.is_nan y)
  | B p, Value.Vbool q -> p = q
  | _ -> false

let eval_matches_native =
  prop ~count:4000 ~print:print_case
    "evaluator = native arithmetic (value, flops, mem-ops, pending bits)" gen_case (fun c ->
      List.for_all
        (fun f_real ->
          match (native ~f_real c, evaluate ~f_real c) with
          | None, None -> true
          | Some (nv, (fl, mm, pend)), Some (v, (fl', mm', pend')) ->
            same_value nv v && fl = fl' && mm = mm'
            && Int64.equal (Int64.bits_of_float pend) (Int64.bits_of_float pend')
          | _ -> false)
        [ false; true ])

(* --- Storage validity ------------------------------------------------------ *)

let gen_layout =
  let open QCheck2.Gen in
  let* rank = int_range 1 3 in
  let* bounds =
    list_repeat rank (map2 (fun lo n -> (lo, lo + n - 1)) (int_range (-2) 3) (int_range 1 7))
  in
  let* nprocs = int_range 1 300 in
  let* proc = int_range 0 (nprocs - 1) in
  let* d = int_range 0 (rank - 1) in
  let extent = let lo, hi = List.nth bounds d in hi - lo + 1 in
  let* kind = int_range 0 4 in
  let* b = int_range 1 4 in
  let layout =
    match kind with
    | 0 -> Layout.replicated bounds
    | 1 -> { Layout.bounds; dist_dim = Some d; dist = Layout.Replicated }
    | 2 -> { Layout.bounds; dist_dim = Some d;
             dist = Layout.Block (if b = 4 then Layout.block_size_for ~nprocs (1, extent) else b) }
    | 3 -> { Layout.bounds; dist_dim = Some d; dist = Layout.Cyclic }
    | _ -> { Layout.bounds; dist_dim = Some d; dist = Layout.Block_cyclic b }
  in
  return (layout, nprocs, proc)

(* valid(idx) iff idx's subscript in the distributed dimension is in the
   processor's owned set; every element when there is none *)
let validity_is_ownership (layout, nprocs, proc) =
  let obj = Storage.alloc ~stats:(Stats.create nprocs) ~proc ~nprocs "v" Ast.Real layout in
  let ok = ref true in
  let check () =
    let owned = Layout.owned_one obj.Storage.layout ~nprocs proc in
    let valid = Storage.valid obj in
    Storage.iter_elements obj (fun idx flat ->
        let expected =
          match obj.Storage.layout.Layout.dist_dim with
          | None -> true
          | Some d -> Iset.mem idx.(d) owned
        in
        if expected <> (Bytes.get valid flat = '\001') then ok := false)
  in
  check ();
  (* and again after a switch to a cyclic layout of the same bounds *)
  let d = Option.value ~default:0 layout.Layout.dist_dim in
  Storage.set_layout obj
    { Layout.bounds = layout.Layout.bounds; dist_dim = Some d; dist = Layout.Cyclic };
  check ();
  !ok

let validity_property =
  prop ~count:500
    ~print:(fun (l, p, q) -> Fmt.str "%a bounds %d, P=%d, p%d" Layout.pp l
      (Layout.rank l) p q)
    "storage validity = per-element ownership (ranks 1-3, P 1-300)" gen_layout
    validity_is_ownership

(* --- Run-time checks --------------------------------------------------------- *)

let myp = Ast.Var "my$p"
let loc = Loc.make ~file:"peer.fd" ~line:7 ~col:3

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let prog ?(arrays = []) body =
  { Node.n_main = "m"; n_nprocs = 2; n_common_arrays = []; n_common_scalars = [];
    n_procs =
      [ { Node.np_name = "m"; np_formals = []; np_arrays = arrays; np_scalars = [];
          np_body = Node.N_assign (myp, Ast.Funcall ("myproc", [])) :: body } ] }

let peer_out_of_range () =
  let on_p0 s = Node.N_if { cond = Ast.Bin (Ast.Eq, myp, Ast.Int_const 0); then_ = [ s ];
                            else_ = []; loc = Loc.none } in
  List.iter
    (fun stmt ->
      match Scheduler.run (Config.make ~nprocs:2 ()) (prog [ on_p0 stmt ]) with
      | _ -> Alcotest.fail "expected a runtime error"
      | exception Scheduler.Sim_error (Scheduler.Runtime_error _ as e) ->
        let s = Scheduler.error_to_string e in
        List.iter
          (fun needle -> if not (contains s needle) then Alcotest.failf "%S lacks %S" s needle)
          [ "peer.fd:7:3"; "p0"; "processor -1"; "outside 0..1" ])
    [ Node.N_recv { src = Ast.Bin (Ast.Sub, myp, Ast.Int_const 1); tag = 1; loc };
      Node.N_send { dest = Ast.Int_const (-1); parts = []; tag = 2; loc } ]

let owner_bounds_checked () =
  let l = { Layout.bounds = [ (1, 8) ]; dist_dim = Some 0; dist = Layout.Cyclic } in
  let arrays = [ { Node.ad_name = "a"; ad_elt = Ast.Real; ad_layout = l } ] in
  let owner = Ast.Funcall ("owner$", [ Ast.Var "a"; Ast.Int_const 0 ]) in
  match Scheduler.run (Config.make ~nprocs:2 ()) (prog ~arrays [ Node.N_assign (Ast.Var "k", owner) ]) with
  | _ -> Alcotest.fail "owner$(a, 0) must be a bounds error"
  | exception Diag.Compile_error d ->
    Alcotest.(check string) "message" "array a: subscript 0 out of bounds 1:8 in dimension 1"
      d.Diag.message

(* The fuzz case whose owner$(a, 0) made a receive from processor -1
   index the wait-for graph out of bounds. *)
let fuzz_case_196845 () =
  let src, strategy = Fd_fuzz.Harness.gen_case 196845 in
  match Fd_fuzz.Harness.run_case ~nprocs:4 ~strategy src with
  | Fd_fuzz.Harness.Failed k ->
    Alcotest.failf "case 196845: %s %s" (Fd_fuzz.Harness.kind_name k)
      (Fd_fuzz.Harness.kind_detail k)
  | Fd_fuzz.Harness.Accepted | Fd_fuzz.Harness.Rejected -> ()

(* The fuzz cases whose communication was hoisted past a loop-body
   write (a stale copy, the first six) or past a callee's remap (a
   dropped copy, the last two).  Each verifies under every strategy. *)
let placement_seeds = [ 31860; 102525; 151076; 172361; 179298; 181366; 167028; 189043 ]

let fuzz_cases_placement () =
  List.iter
    (fun seed ->
      let src, _ = Fd_fuzz.Harness.gen_case seed in
      List.iter
        (fun strategy ->
          match Fd_fuzz.Harness.run_case ~nprocs:4 ~strategy src with
          | Fd_fuzz.Harness.Accepted -> ()
          | Fd_fuzz.Harness.Rejected ->
            Alcotest.failf "case %d under %s: rejected" seed (Fd_core.Options.strategy_name strategy)
          | Fd_fuzz.Harness.Failed k ->
            Alcotest.failf "case %d under %s: %s %s" seed
              (Fd_core.Options.strategy_name strategy) (Fd_fuzz.Harness.kind_name k)
              (Fd_fuzz.Harness.kind_detail k))
        [ Fd_core.Options.Interproc; Fd_core.Options.Immediate;
          Fd_core.Options.Runtime_resolution ])
    placement_seeds

(* --- Every scalar write keeps the cell's type ------------------------------- *)

(* An implicitly REAL DO variable holds reals: x / 2 divides as reals. *)
let real_do_variable () =
  let src =
    "program p\n  real y\n  y = 0.0\n  do x = 1, 3\n    y = y + x / 2\n  enddo\n  print *, y\nend\n"
  in
  let r = Fd_core.Driver.run_source ~opts:{ Fd_core.Options.default with nprocs = 2 } src in
  Alcotest.(check (list string)) "output" [ "3" ] (Stats.outputs r.Fd_core.Driver.stats);
  Alcotest.(check bool) "verified" true (Fd_core.Driver.verified r)

(* A broadcast scalar is stored as assignment stores it: processor 1's
   formal is its INTEGER k, so the root's real 2.5 arrives as 2. *)
let broadcast_keeps_type () =
  let s =
    { Node.np_name = "s"; np_formals = [ "v" ]; np_arrays = []; np_scalars = [];
      np_body =
        [ Node.N_bcast { root = Ast.Int_const 0; payload = Node.P_scalar "v"; site = 1;
                         loc = Loc.none } ] }
  in
  let body =
    [ Node.N_assign (Ast.Var "x", Ast.Real_const 2.5);
      Node.N_if { cond = Ast.Bin (Ast.Eq, myp, Ast.Int_const 0);
                  then_ = [ Node.N_call ("s", [ Ast.Var "x" ]) ];
                  else_ = [ Node.N_call ("s", [ Ast.Var "k" ]) ]; loc = Loc.none };
      Node.N_print [ Ast.Bin (Ast.Add, Ast.Var "k", Ast.Int_const 1) ] ]
  in
  let p = prog body in
  let p = { p with Node.n_procs = p.Node.n_procs @ [ s ] } in
  let stats, frames = Scheduler.run (Config.make ~nprocs:2 ()) p in
  (match Hashtbl.find frames.(1) "k" with
  | Eval.Bscalar { contents = Value.Vint 2 } -> ()
  | Eval.Bscalar r -> Alcotest.failf "k = %s" (Value.to_string !r)
  | Eval.Barray _ -> Alcotest.fail "k is an array");
  Alcotest.(check (list string)) "k + 1 on each processor" [ "1"; "3" ]
    (List.sort compare (Stats.outputs stats))

let suite =
  [ eval_matches_native;
    validity_property;
    Alcotest.test_case "message peer outside 0..P-1 is a located runtime error" `Quick
      peer_out_of_range;
    Alcotest.test_case "owner$ bounds-checks its subscript" `Quick owner_bounds_checked;
    Alcotest.test_case "fuzz case 196845 does not crash" `Quick fuzz_case_196845;
    Alcotest.test_case "fuzz cases hoisted past writes and remaps" `Quick fuzz_cases_placement;
    Alcotest.test_case "a REAL DO variable holds reals" `Quick real_do_variable;
    Alcotest.test_case "a broadcast scalar keeps the cell's type" `Quick broadcast_keeps_type ]
