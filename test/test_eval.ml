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

(* --- Random expressions ------------------------------------------------- *)

(* Free names: integer i, real x, logical l, PARAMETER np and a real
   array a(1:4).  Subscripts may leave 1..4; integer division and mod may
   divide by zero; both evaluators must then fail. *)
let i0 = 3
let x0 = 2.5
let np = 7
let avals = [| 0.5; -1.25; 3.0; 4.75 |]

let gen_expr : Ast.expr QCheck2.Gen.t =
  let open QCheck2.Gen in
  let arith = oneofl [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div ] in
  let rec int_e d =
    let leaf =
      oneof
        [ map (fun n -> Ast.Int_const n) (int_range (-9) 9);
          return (Ast.Var "i"); return (Ast.Var "np") ]
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
          map2 (fun a b -> Ast.Funcall ("sign", [ a; b ])) s (num_e (d - 1)) ]
  and num_e d =
    let leaf =
      oneof
        [ int_e 0;
          map (fun f -> Ast.Real_const f) (float_range (-8.0) 8.0);
          return (Ast.Var "x");
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
    let leaf = oneof [ map (fun b -> Ast.Logical_const b) bool; return (Ast.Var "l") ] in
    if d = 0 then leaf
    else
      let s = bool_e (d - 1) and n = num_e (d - 1) in
      oneof
        [ leaf;
          map3 (fun op a b -> Ast.Bin (op, a, b))
            (oneofl [ Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge; Ast.Eq; Ast.Ne ]) n n;
          map3 (fun op a b -> Ast.Bin (op, a, b)) (oneofl [ Ast.And; Ast.Or ]) s s;
          map (fun a -> Ast.Un (Ast.Not, a)) s ]
  in
  int_range 0 4 >>= fun d -> oneof [ num_e d; bool_e d ]

(* --- The native oracle ---------------------------------------------------- *)

type nv = I of int | R of float | B of bool

exception Fails

let config = Config.ipsc860 ~nprocs:1 ()

(* Evaluate with native OCaml arithmetic, counting flops and mem-ops and
   adding their costs to [pending] in evaluation order. *)
let native e =
  let flops = ref 0 and mems = ref 0 and pending = ref 0.0 in
  let flop () = incr flops; pending := !pending +. config.Config.flop in
  let mem () = incr mems; pending := !pending +. config.Config.mem_op in
  let f = function I n -> float_of_int n | R x -> x | B _ -> raise Fails in
  let i = function I n -> n | R x -> int_of_float x | B _ -> raise Fails in
  let b = function B v -> v | _ -> raise Fails in
  let cmp x y = match (x, y) with I m, I n -> compare m n | _ -> compare (f x) (f y) in
  let rec ev = function
    | Ast.Int_const n -> I n
    | Ast.Real_const x -> R x
    | Ast.Logical_const v -> B v
    | Ast.Var "i" -> I i0
    | Ast.Var "x" -> R x0
    | Ast.Var "l" -> B true
    | Ast.Var "np" -> I np
    | Ast.Ref ("a", [ s ]) ->
      let k = i (ev s) in
      mem ();
      if k < 1 || k > 4 then raise Fails;
      R avals.(k - 1)
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
      | Ast.Pow, I m, I n when n >= 0 ->
        let r = ref 1 in
        for _ = 1 to n do r := !r * m done;
        I !r
      | Ast.Add, _, _ -> R (f vx +. f vy)
      | Ast.Sub, _, _ -> R (f vx -. f vy)
      | Ast.Mul, _, _ -> R (f vx *. f vy)
      | Ast.Div, _, _ -> R (f vx /. f vy)
      | Ast.Pow, _, _ -> R (Float.pow (f vx) (f vy))
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
      | "sign", [ x; y ] ->
        let m = f (ev x) in
        let s = f (ev y) in
        let r = if s >= 0.0 then Float.abs m else -.Float.abs m in
        (* the first argument is evaluated a second time for its type *)
        (match ev x with I _ -> I (int_of_float r) | _ -> R r)
      | ("max" | "min"), _ ->
        (* all arguments first, then the first strict improvement wins *)
        let vs = List.map ev args in
        let better c = if name = "max" then c > 0 else c < 0 in
        List.fold_left (fun acc v -> if better (cmp v acc) then v else acc) (List.hd vs)
          (List.tl vs)
      | _ -> raise Fails)
    | _ -> raise Fails
  in
  match ev e with v -> Some (v, !flops, !mems, !pending) | exception Fails -> None

(* --- The evaluator under test --------------------------------------------- *)

let evaluate e =
  let layout = Layout.replicated [ (1, 4) ] in
  let u =
    Eval.unit_code ~formals:[]
      ~arrays:[ { Node.ad_name = "a"; ad_elt = Ast.Real; ad_layout = layout } ]
      ~scalars:[ ("i", Ast.Integer); ("x", Ast.Real); ("l", Ast.Logical) ]
      ~is_common:(fun _ -> false)
  in
  let globals = Eval.globals ~arrays:[] ~scalars:[] in
  let sc =
    { Eval.unit = u; globals; units = Hashtbl.create 1;
      params = (fun n -> if n = "np" then Some np else None);
      hook = (fun _ _ _ -> None) }
  in
  let code = Eval.expr sc e in
  let cell = Eval.scalar_cell sc and arr = Eval.array_obj sc "a" in
  let ci = cell "i" and cx = cell "x" and cl = cell "l" in
  let result = ref None in
  u.Eval.u_body <-
    (fun env ->
      ci env := Value.Vint i0;
      cx env := Value.Vreal x0;
      cl env := Value.Vbool true;
      Array.iteri (fun k v -> Storage.write (arr env) [| k + 1 |] (Value.Vreal v)) avals;
      result :=
        match code env with
        | v -> Some (v, env.Eval.stats.Stats.flops, env.Eval.stats.Stats.mem_ops,
                     env.Eval.clock.Eval.pending)
        | exception Diag.Compile_error _ -> None);
  let env =
    Eval.env ~proc:0 ~nprocs:1 ~strict:false ~config ~stats:(Stats.create 1)
  in
  ignore (Eval.run_main env ~globals u);
  !result

let same_value nv (v : Value.t) =
  match (nv, v) with
  | I m, Value.Vint n -> m = n
  | R x, Value.Vreal y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
                          || (Float.is_nan x && Float.is_nan y)
  | B p, Value.Vbool q -> p = q
  | _ -> false

let eval_matches_native =
  prop ~count:1000 ~print:(Fmt.str "%a" Ast_printer.pp_expr)
    "evaluator = native arithmetic (value, flops, mem-ops, pending bits)" gen_expr (fun e ->
      match (native e, evaluate e) with
      | None, None -> true
      | Some (nv, fl, mm, pend), Some (v, fl', mm', pend') ->
        same_value nv v && fl = fl' && mm = mm'
        && Int64.equal (Int64.bits_of_float pend) (Int64.bits_of_float pend')
      | _ -> false)

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
  let obj = Storage.alloc ~proc ~nprocs "v" Ast.Real layout in
  let ok = ref true in
  let check () =
    let owned = Layout.owned_one obj.Storage.layout ~nprocs proc in
    Storage.iter_elements obj (fun idx flat ->
        let expected =
          match obj.Storage.layout.Layout.dist_dim with
          | None -> true
          | Some d -> Iset.mem idx.(d) owned
        in
        if expected <> (Bytes.get obj.Storage.valid flat = '\001') then ok := false)
  in
  check ();
  (* and again after a switch to a cyclic layout of the same bounds *)
  let d = Option.value ~default:0 layout.Layout.dist_dim in
  Storage.set_layout ~nprocs obj
    { Layout.bounds = layout.Layout.bounds; dist_dim = Some d; dist = Layout.Cyclic };
  check ();
  !ok

let validity_property =
  prop ~count:500
    ~print:(fun (l, p, q) -> Fmt.str "%s bounds %d, P=%d, p%d" (Layout.to_string l)
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

let suite =
  [ eval_matches_native;
    validity_property;
    Alcotest.test_case "message peer outside 0..P-1 is a located runtime error" `Quick
      peer_out_of_range;
    Alcotest.test_case "owner$ bounds-checks its subscript" `Quick owner_bounds_checked;
    Alcotest.test_case "fuzz case 196845 does not crash" `Quick fuzz_case_196845 ]
