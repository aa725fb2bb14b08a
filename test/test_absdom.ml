(* Property tests for the compressed ensemble value domain: every
   segment-level fast path in Absdom must be equivalent, by
   concretization, to applying the pointwise semantics lane-by-lane.
   The pointwise reference is Absdom at n = 1 (a [Uni] value has no fast
   path to take), whose operators are Value's, lifted.  A last property
   closes the loop: Absint's expression compiler over n lanes against
   Eval, the simulator's evaluator, at each pid. *)

open Fd_support
open Fd_frontend
open Fd_machine
open Fd_verify

let prop ?(count = 500) ?print name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ?print ~name gen f)

(* Structural equality with NaN-tolerant floats (compare, not =). *)
let pv_eq (a : Absdom.pv) (b : Absdom.pv) = compare a b = 0

let pp_pv = function
  | Absdom.Pint i -> Fmt.str "Pint %d" i
  | Absdom.Preal f -> Fmt.str "Preal %g" f
  | Absdom.Pbool b -> Fmt.str "Pbool %b" b
  | Absdom.Punk -> "Punk"

(* --- generators --------------------------------------------------------- *)

(* Dyadic reals keep float arithmetic exact enough to be deterministic;
   both sides run the identical operations anyway. *)
let pv_gen =
  QCheck2.Gen.(
    frequency
      [
        (4, map (fun i -> Absdom.Pint i) (int_range (-9) 9));
        (2, map (fun i -> Absdom.Preal (float_of_int i /. 2.)) (int_range (-8) 8));
        (2, map (fun b -> Absdom.Pbool b) bool);
        (2, return Absdom.Punk);
      ])

let n_gen = QCheck2.Gen.oneofl [ 1; 2; 3; 4; 5; 7; 8; 13; 16; 64; 97 ]

(* A lane vector with realistic structure: constant runs, affine
   stretches (my$p + b shapes), and pure noise. *)
let dense_gen n =
  QCheck2.Gen.(
    let run_gen =
      frequency
        [
          (3, map (fun v len -> List.init len (fun _ -> v)) pv_gen);
          ( 2,
            map2
              (fun a b len -> List.init len (fun k -> Absdom.Pint ((a * k) + b)))
              (int_range (-2) 2) (int_range (-5) 5) );
          (1, return (fun len -> List.init len (fun _ -> Absdom.Punk)));
        ]
    in
    let rec fill acc left =
      if left <= 0 then return (Array.of_list (List.concat (List.rev acc)))
      else
        let* len = int_range 1 (max 1 (left / 2 + 1)) in
        let len = min len left in
        let* mk = run_gen in
        fill (mk len :: acc) (left - len)
    in
    fill [] n)

(* An operand: a generic lane vector, a uniform value, or the pid
   vector itself. *)
let operand_gen n =
  QCheck2.Gen.(
    let* d = dense_gen n in
    frequency
      [
        (6, return (Absdom.of_dense d));
        (1, map (fun pv -> Absdom.Uni pv) pv_gen);
        (1, return (Absdom.myproc ~n));
      ])

let value_gen =
  QCheck2.Gen.(
    let* n = n_gen in
    let* v = operand_gen n in
    return (n, v))

(* Both operands draw from [operand_gen], so a [Uni] meets [Runs] on
   either side and [myproc] meets everything. *)
let pair_gen =
  QCheck2.Gen.(
    let* n = n_gen in
    let* a = operand_gen n in
    let* b = operand_gen n in
    return (n, a, b))

let binops =
  Absdom.
    [
      (Add, "Add"); (Sub, "Sub"); (Mul, "Mul"); (Div, "Div"); (Pow, "Pow");
      (Mod, "Mod"); (Eq, "Eq"); (Ne, "Ne"); (Lt, "Lt"); (Le, "Le");
      (Gt, "Gt"); (Ge, "Ge"); (And, "And"); (Or, "Or"); (Max, "Max");
      (Min, "Min"); (Join, "Join");
    ]

let unops =
  Absdom.[ (Neg, "Neg"); (Not, "Not"); (Abs, "Abs"); (ToInt, "ToInt");
           (ToReal, "ToReal") ]

(* Pointwise reference: the n = 1 uniform path of the same module. *)
let ref2 op a b =
  Absdom.at (Absdom.app2 ~n:1 op (Absdom.Uni a) (Absdom.Uni b)) 0

let ref1 op a = Absdom.at (Absdom.app1 ~n:1 op (Absdom.Uni a)) 0

(* --- invariants of the representation ----------------------------------- *)

let well_formed ~n (v : Absdom.t) =
  match v with
  | Absdom.Uni _ -> true
  | Absdom.Runs segs ->
    (* sorted contiguous exact cover of [0, n-1] *)
    let rec cover expect = function
      | [] -> expect = n
      | (l, u, _) :: rest -> l = expect && u >= l && u < n && cover (u + 1) rest
    in
    cover 0 segs
    (* no full-range known constant hiding as Runs (it must be Uni);
       full-range Sconst Punk is legal: divergent-unknown *)
    && (match segs with
       | [ (0, u, Absdom.Sconst pv) ] when u = n - 1 -> pv = Absdom.Punk
       | _ -> true)

(* --- the properties ------------------------------------------------------ *)

let test_roundtrip =
  prop "of_dense/to_dense roundtrip + well-formed"
    QCheck2.Gen.(
      let* n = n_gen in
      let* d = dense_gen n in
      return (n, d))
    (fun (n, d) ->
      let v = Absdom.of_dense d in
      well_formed ~n v
      && Array.for_all2 (fun a b -> pv_eq a b) d (Absdom.to_dense ~n v))

let test_app2 =
  prop ~count:2000 "app2 == pointwise (all binops)"
    QCheck2.Gen.(
      let* n, a, b = pair_gen in
      let* i = int_range 0 (List.length binops - 1) in
      return (n, a, b, i))
    (fun (n, a, b, i) ->
      let op, opname = List.nth binops i in
      let r = Absdom.app2 ~n op a b in
      well_formed ~n r
      &&
      let da = Absdom.to_dense ~n a and db = Absdom.to_dense ~n b in
      let dr = Absdom.to_dense ~n r in
      Array.for_all
        (fun p ->
          let want = ref2 op da.(p) db.(p) in
          pv_eq dr.(p) want
          ||
          (QCheck2.Test.fail_reportf
             "%s lane %d/%d: compressed %s, pointwise %s" opname p n
             (pp_pv dr.(p)) (pp_pv want) [@warning "-20"]))
        (Array.init n Fun.id))

(* [app2]'s shortcuts against the pointwise lanes: my$p = k and
   my$p /= k, on either side, for n in 1..97 and k from below pid 0 to
   past pid n-1 (an owner guard; [pair_gen] reaches my$p against an int
   only with k in -9..9), and a uniform false under .and. or true under
   .or. against runs that hold unknown and affine lanes. *)
let test_app2_shortcuts =
  prop ~count:1000 "app2 shortcuts == pointwise (owner guard, Kleene)"
    QCheck2.Gen.(
      let* n = int_range 1 97 in
      let* k = int_range (-2) (n + 1) in
      let* d = dense_gen n in
      let* other =
        oneofl [ Absdom.of_dense d; Absdom.myproc ~n; Absdom.divergent_unknown ~n ]
      in
      return (n, k, other))
    (fun (n, k, other) ->
      let myp = Absdom.myproc ~n in
      let cases =
        Absdom.
          [ ("my$p = k", Eq, myp, Uni (Pint k)); ("k = my$p", Eq, Uni (Pint k), myp);
            ("my$p /= k", Ne, myp, Uni (Pint k)); ("k /= my$p", Ne, Uni (Pint k), myp);
            ("false .and. v", And, Uni (Pbool false), other);
            ("v .and. false", And, other, Uni (Pbool false));
            ("true .or. v", Or, Uni (Pbool true), other);
            ("v .or. true", Or, other, Uni (Pbool true)) ]
      in
      List.for_all
        (fun (what, op, a, b) ->
          let r = Absdom.app2 ~n op a b in
          let da = Absdom.to_dense ~n a and db = Absdom.to_dense ~n b in
          let dr = Absdom.to_dense ~n r in
          well_formed ~n r
          && Array.for_all
               (fun p ->
                 let want = ref2 op da.(p) db.(p) in
                 pv_eq dr.(p) want
                 || (QCheck2.Test.fail_reportf "%s (k = %d) lane %d/%d: compressed %s, pointwise %s"
                       what k p n (pp_pv dr.(p)) (pp_pv want) [@warning "-20"]))
               (Array.init n Fun.id))
        cases)

let test_app1 =
  prop ~count:1000 "app1 == pointwise (all unops)"
    QCheck2.Gen.(
      let* n, v = value_gen in
      let* i = int_range 0 (List.length unops - 1) in
      return (n, v, i))
    (fun (n, v, i) ->
      let op, opname = List.nth unops i in
      let r = Absdom.app1 ~n op v in
      well_formed ~n r
      &&
      let dv = Absdom.to_dense ~n v and dr = Absdom.to_dense ~n r in
      Array.for_all
        (fun p ->
          let want = ref1 op dv.(p) in
          pv_eq dr.(p) want
          ||
          (QCheck2.Test.fail_reportf "%s lane %d/%d: compressed %s, pointwise %s"
             opname p n (pp_pv dr.(p)) (pp_pv want) [@warning "-20"]))
        (Array.init n Fun.id))

(* A store into a cell converts each lane as Value.stored does; a lane
   whose cell is unknown keeps the stored lane. *)
let test_store =
  prop ~count:1000 "store == pointwise Value.stored"
    pair_gen
    (fun (n, into, v) ->
      let r = Absdom.store ~n ~into v in
      well_formed ~n r
      &&
      let value = function
        | Absdom.Pint i -> Value.Vint i
        | Absdom.Preal x -> Value.Vreal x
        | Absdom.Pbool b -> Value.Vbool b
        | Absdom.Punk -> invalid_arg "value"
      in
      let want c x =
        match (c, x) with
        | Absdom.Punk, _ -> x
        | _, Absdom.Punk -> Absdom.Punk
        | _ -> (
          match Value.stored ~into:(value c) (value x) with
          | Value.Vint i -> Absdom.Pint i
          | Value.Vreal f -> Absdom.Preal f
          | Value.Vbool b -> Absdom.Pbool b
          | exception Fd_support.Diag.Compile_error _ -> Absdom.Punk)
      in
      let di = Absdom.to_dense ~n into and dv = Absdom.to_dense ~n v in
      let dr = Absdom.to_dense ~n r in
      Array.for_all
        (fun p ->
          let w = want di.(p) dv.(p) in
          pv_eq dr.(p) w
          || (QCheck2.Test.fail_reportf "lane %d/%d: into %s, stored %s: compressed %s, pointwise %s"
                p n (pp_pv di.(p)) (pp_pv dv.(p)) (pp_pv dr.(p)) (pp_pv w) [@warning "-20"]))
        (Array.init n Fun.id))

let test_blend =
  prop "blend masks lanes exactly"
    QCheck2.Gen.(
      let* n, old_v, upd = pair_gen in
      let* mask = dense_gen n in
      (* active set with run structure: lanes where the mask lane is
         Pbool true, plus every third lane *)
      let act =
        Iset.of_intervals
          (List.concat
             (List.init n (fun p ->
                  match mask.(p) with
                  | Absdom.Pbool true -> [ (p, p) ]
                  | _ -> if p mod 3 = 0 then [ (p, p) ] else [])))
      in
      return (n, old_v, upd, act))
    (fun (n, old_v, upd, act) ->
      let r = Absdom.blend ~n ~act old_v upd in
      well_formed ~n r
      &&
      let d_old = Absdom.to_dense ~n old_v
      and d_upd = Absdom.to_dense ~n upd
      and dr = Absdom.to_dense ~n r in
      Array.for_all
        (fun p ->
          pv_eq dr.(p) (if Iset.mem p act then d_upd.(p) else d_old.(p)))
        (Array.init n Fun.id))

let test_select =
  prop "select == dense table walk"
    QCheck2.Gen.(
      let* n = n_gen in
      let* sel = dense_gen n in
      let* k = int_range 1 4 in
      let* tbl =
        flatten_l (List.init k (fun _ -> map Absdom.of_dense (dense_gen n)))
      in
      return (n, Absdom.of_dense sel, Array.of_list tbl))
    (fun (n, sel, vs) ->
      let r = Absdom.select ~n sel vs in
      well_formed ~n r
      &&
      let ds = Absdom.to_dense ~n sel and dr = Absdom.to_dense ~n r in
      Array.for_all
        (fun p ->
          let want =
            match ds.(p) with
            | Absdom.Pint i when i >= 0 && i < Array.length vs ->
              Absdom.at vs.(i) p
            | _ -> Absdom.Punk
          in
          pv_eq dr.(p) want)
        (Array.init n Fun.id))

(* Active sets are a single range or a multi-interval mask. *)
let act_gen n =
  QCheck2.Gen.(
    frequency
      [
        ( 1,
          let* lo = int_range 0 (n - 1) in
          let* hi = int_range lo (n - 1) in
          return (Iset.range lo hi) );
        ( 2,
          map Iset.of_intervals
            (list_size (int_range 0 5)
               (let* lo = int_range 0 (n - 1) in
                let* len = frequency [ (2, return 0); (1, int_range 1 4) ] in
                return (lo, min (n - 1) (lo + len)))) );
      ])

let test_truth =
  prop "truth classification agrees with the lanes"
    QCheck2.Gen.(
      let* n, v = value_gen in
      let* act = act_gen n in
      return (n, v, act))
    (fun (n, v, act) ->
      let d = Absdom.to_dense ~n v in
      let lane_true p = d.(p) = Absdom.Pbool true in
      let lane_false p = d.(p) = Absdom.Pbool false in
      let lane_bool p = lane_true p || lane_false p in
      let acts = Iset.to_list act in
      match Absdom.truth ~n ~act v with
      | Absdom.T_true ->
        (* whole-ensemble verdicts come from Uni values only *)
        List.for_all lane_true (List.init n Fun.id)
      | Absdom.T_false -> List.for_all lane_false (List.init n Fun.id)
      | Absdom.T_unknown_uniform -> Absdom.is_uniform v
      | Absdom.T_split (t, f) ->
        (* each side is the canonical set of its lanes, triplet for
           triplet *)
        List.for_all lane_bool acts
        && t = Iset.of_list (List.filter lane_true acts)
        && f = Iset.of_list (List.filter lane_false acts)
      | Absdom.T_divergent ->
        (not (Absdom.is_uniform v)) && not (List.for_all lane_bool acts))

let test_restrict_pids =
  prop "restrict / int_pids match the lanes"
    QCheck2.Gen.(
      let* n, v = value_gen in
      let* lo = int_range 0 (n - 1) in
      let* hi = int_range lo (n - 1) in
      return (n, v, lo, hi))
    (fun (n, v, lo, hi) ->
      let d = Absdom.to_dense ~n v in
      let segs = Absdom.restrict ~n v (lo, hi) in
      let covered = ref lo in
      List.for_all
        (fun (l, u, s) ->
          let ok =
            l = !covered && u <= hi
            && List.for_all
                 (fun p -> pv_eq (Absdom.seg_at s p) d.(p))
                 (List.init (u - l + 1) (fun k -> l + k))
          in
          covered := u + 1;
          ok)
        segs
      && !covered = hi + 1
      && Iset.to_list (Absdom.int_pids ~n v)
         = List.filter
             (fun p -> match d.(p) with Absdom.Pint _ -> true | _ -> false)
             (List.init n Fun.id))

let test_align_many =
  prop "align_many chunks concretize to the inputs"
    QCheck2.Gen.(
      let* n = n_gen in
      let* k = int_range 1 4 in
      let* vs =
        flatten_l (List.init k (fun _ -> map Absdom.of_dense (dense_gen n)))
      in
      return (n, vs))
    (fun (n, vs) ->
      let chunks = Absdom.align_many ~n vs in
      let denses = List.map (Absdom.to_dense ~n) vs in
      let covered = ref 0 in
      List.for_all
        (fun (l, u, segs) ->
          let ok =
            l = !covered && u < n
            && List.length segs = List.length vs
            && List.for_all2
                 (fun s d ->
                   List.for_all
                     (fun p -> pv_eq (Absdom.seg_at s p) d.(p))
                     (List.init (u - l + 1) (fun j -> l + j)))
                 segs denses
          in
          covered := u + 1;
          ok)
        chunks
      && !covered = n)

(* Uniform-unknown and divergent-unknown must never be conflated: the
   collective-congruence analysis lives on this distinction. *)
let test_unknown_distinction () =
  let n = 8 in
  Alcotest.(check bool) "Uni Punk is uniform" true
    (Absdom.is_uniform Absdom.unknown);
  Alcotest.(check bool) "divergent_unknown is not uniform" false
    (Absdom.is_uniform (Absdom.divergent_unknown ~n));
  Alcotest.(check bool) "of_segs keeps full-range Punk divergent" false
    (Absdom.is_uniform
       (Absdom.of_segs ~n [ (0, n - 1, Absdom.Sconst Absdom.Punk) ]));
  (* ...but a full-range known constant normalizes to Uni *)
  Alcotest.(check bool) "of_segs promotes known constants" true
    (Absdom.is_uniform
       (Absdom.of_segs ~n [ (0, n - 1, Absdom.Sconst (Absdom.Pint 3)) ]));
  (* singleton affine runs fold to constants *)
  match Absdom.of_segs ~n:1 [ (0, 0, Absdom.Saff { a = 5; b = 2 }) ] with
  | Absdom.Uni (Absdom.Pint 2) -> ()
  | _ -> Alcotest.fail "singleton affine not folded"

(* --- Absint's expression compiler against Eval ---------------------- *)

(* Scalar expressions sema accepts, over my$p, nprocs(), integer, real
   and logical constants, every operator and every intrinsic. *)
let intrinsics =
  List.concat_map
    (fun (r : Intrinsic.t) ->
      match r.arity with
      | Intrinsic.Exactly k -> [ (r.name, k) ]
      | Intrinsic.At_least k -> [ (r.name, k); (r.name, k + 1) ])
    Intrinsic.table

(* [num_vars] and [bool_vars] are further numeric and logical leaves. *)
let typed_gen ~num_vars ~bool_vars =
  let open QCheck2.Gen in
  let vars names = if names = [] then [] else [ (3, map (fun v -> Ast.Var v) (oneofl names)) ] in
  let leaf =
    frequency
      ([ (2, return (Ast.Var "my$p"));
         (1, return (Ast.Funcall ("nprocs", [])));
         (3, map (fun k -> Ast.Int_const k) (int_range (-40) 40));
         (2, map (fun k -> Ast.Real_const (float_of_int k /. 2.)) (int_range (-6) 6)) ]
      @ vars num_vars)
  in
  let rec num d =
    if d = 0 then leaf
    else
      let s = num (d - 1) in
      frequency
        [ (2, leaf);
          (4, map3 (fun op a b -> Ast.Bin (op, a, b))
                (oneofl Ast.[ Add; Sub; Mul; Div; Pow ]) s s);
          (1, map (fun a -> Ast.Un (Ast.Neg, a)) s);
          (3, let* name, k = oneofl intrinsics in
              map (fun args -> Ast.Funcall (name, args)) (list_repeat k s)) ]
  and logical d =
    let leaf = frequency ((1, map (fun b -> Ast.Logical_const b) bool) :: vars bool_vars) in
    if d = 0 then leaf
    else
      let s = logical (d - 1) and n = num (d - 1) in
      frequency
        [ (1, leaf);
          (3, map3 (fun op a b -> Ast.Bin (op, a, b))
                (oneofl Ast.[ Eq; Ne; Lt; Le; Gt; Ge ]) n n);
          (2, map3 (fun op a b -> Ast.Bin (op, a, b)) (oneofl Ast.[ And; Or ]) s s);
          (1, map (fun a -> Ast.Un (Ast.Not, a)) s) ]
  in
  (num, logical)

let scalar_gen : Ast.expr QCheck2.Gen.t =
  let open QCheck2.Gen in
  let num, logical = typed_gen ~num_vars:[] ~bool_vars:[] in
  let* d = int_range 0 4 in
  oneof [ num d; logical d ]

(* Sema sees nprocs() as the implicitly INTEGER variable it names. *)
let rec as_source (e : Ast.expr) =
  match e with
  | Ast.Funcall ("nprocs", []) -> Ast.Var "nprocs"
  | Ast.Funcall (f, args) -> Ast.Funcall (f, List.map as_source args)
  | Ast.Bin (op, a, b) -> Ast.Bin (op, as_source a, as_source b)
  | Ast.Un (op, a) -> Ast.Un (op, as_source a)
  | e -> e

(* Where Eval stops on one operand of an [.and.]/[.or.], the walk's
   Kleene logic may still decide the result from the other: any lane is
   sound there. *)
let rec kleene (e : Ast.expr) =
  match e with
  | Ast.Bin ((Ast.And | Ast.Or), _, _) -> true
  | Ast.Bin (_, a, b) -> kleene a || kleene b
  | Ast.Un (_, a) -> kleene a
  | Ast.Funcall (_, args) -> List.exists kleene args
  | _ -> false

(* Eval's intrinsics for nprocs() and tab$, which the interpreter
   supplies. *)
let hook sc name args =
  match (name, args) with
  | "nprocs", [] -> Some (Eval.Int (fun env -> env.Eval.nprocs))
  | "tab$", sel :: consts ->
    let sel = Eval.int_expr sc sel and consts = Array.of_list (List.map (Eval.expr sc) consts) in
    Some (Eval.Boxed (fun env -> consts.(sel env) env))
  | _ -> None

(* [e] at each pid of [nprocs], [None] where it raises. *)
let eval_lanes ~nprocs e =
  let u =
    Eval.unit_code ~formals:[] ~arrays:[] ~scalars:[ ("my$p", Ast.Integer) ]
      ~is_common:(fun _ -> false)
  in
  let globals = Frame.common ~arrays:[] ~scalars:[] in
  let sc =
    { Eval.unit = u; globals; units = Hashtbl.create 1; params = (fun _ -> None); hook }
  in
  let c = Eval.expr sc e and me = Eval.scalar_cell sc "my$p" in
  let result = ref None in
  Eval.define u (fun env ->
      me env := Value.Vint env.Eval.proc;
      result := try Some (c env) with Diag.Compile_error _ | Storage.Runtime_error _ -> None);
  let config = Config.ipsc860 ~nprocs () in
  Array.init nprocs (fun proc ->
      let env = Eval.env ~proc ~nprocs ~strict:false ~config ~stats:(Stats.create 1) in
      ignore (Eval.run_main env ~globals u);
      !result)

let same_bits (lane : Absdom.pv) (v : Value.t) =
  match (lane, v) with
  | Absdom.Pint i, Value.Vint j -> i = j
  | Absdom.Preal x, Value.Vreal y -> Int64.bits_of_float x = Int64.bits_of_float y
  | Absdom.Pbool p, Value.Vbool q -> p = q
  | _ -> false

let has_type ty (v : Value.t) =
  match (ty, v) with
  | Ast.Integer, Value.Vint _ | Ast.Real, Value.Vreal _ | Ast.Logical, Value.Vbool _ -> true
  | _ -> false

let test_scalar_semantics =
  prop ~count:10_000 "Absint lanes = Eval per pid; Eval's value has sema's type"
    QCheck2.Gen.(pair (oneofl [ 1; 2; 3; 4; 5; 7; 8 ]) scalar_gen)
    (fun (n, e) ->
      let fail fmt =
        QCheck2.Test.fail_reportf ("%s at P=%d: " ^^ fmt) (Ast_printer.expr_to_string e) n
      in
      match Sema.expr_type (as_source e) with
      | None -> fail "sema rejects it"
      | Some ty ->
        let lanes = Absint.scalar ~nprocs:n e in
        let lane_ok p want =
          let lane = Absdom.at lanes p in
          match want with
          | Some v when not (has_type ty v) ->
            fail "pid %d: Eval gives %s, sema types it %s" p (Value.to_string v)
              (Ast_printer.dtype_name ty)
          | Some v ->
            same_bits lane v
            || fail "pid %d: lane %s, Eval %s" p (pp_pv lane) (Value.to_string v)
          | None ->
            lane = Absdom.Punk || kleene e
            || fail "pid %d: lane %s, Eval raises" p (pp_pv lane)
        in
        Array.for_all Fun.id (Array.mapi lane_ok (eval_lanes ~nprocs:n e)))

(* --- store sequences ---------------------------------------------------- *)

(* Typed scalars; integers and reals are implicitly typed by name, so
   sema types an expression over them as the walk and Eval do. *)
let seq_decls =
  [ ("i1", Ast.Integer); ("i2", Ast.Integer); ("x1", Ast.Real); ("x2", Ast.Real);
    ("l1", Ast.Logical); ("l2", Ast.Logical) ]

let names_of ty = List.filter_map (fun (v, t) -> if t = ty then Some v else None) seq_decls

(* Stores sema accepts: a numeric value into an INTEGER or REAL scalar
   (converting as Value.stored does), a logical one into a LOGICAL. *)
let stores_gen : (string * Ast.expr) list QCheck2.Gen.t =
  let open QCheck2.Gen in
  let num, logical =
    typed_gen ~num_vars:(names_of Ast.Integer @ names_of Ast.Real)
      ~bool_vars:(names_of Ast.Logical)
  in
  let store =
    let* x, ty = oneofl seq_decls in
    let* d = int_range 0 3 in
    map (fun e -> (x, e)) (if ty = Ast.Logical then logical d else num d)
  in
  list_size (int_range 1 6) store

(* The final value of each of [seq_decls] at each pid of [nprocs], or
   [None] at a pid where a store raises. *)
let eval_stores ~nprocs body =
  let u =
    Eval.unit_code ~formals:[] ~arrays:[] ~scalars:(("my$p", Ast.Integer) :: seq_decls)
      ~is_common:(fun _ -> false)
  in
  let globals = Frame.common ~arrays:[] ~scalars:[] in
  let sc = { Eval.unit = u; globals; units = Hashtbl.create 1; params = (fun _ -> None); hook } in
  let codes = List.map (fun (x, e) -> Eval.assign sc (Ast.Var x) e) body in
  let me = Eval.scalar_cell sc "my$p" and ok = ref false in
  Eval.define u (fun env ->
      me env := Value.Vint env.Eval.proc;
      ok :=
        try List.iter (fun c -> c env) codes; true
        with Diag.Compile_error _ | Storage.Runtime_error _ -> false);
  let config = Config.ipsc860 ~nprocs () in
  Array.init nprocs (fun proc ->
      let env = Eval.env ~proc ~nprocs ~strict:false ~config ~stats:(Stats.create 1) in
      let frame = Eval.run_main env ~globals u in
      if not !ok then None
      else
        Some
          (List.map
             (fun (x, _) ->
               match Hashtbl.find frame x with
               | Eval.Bscalar r -> !r
               | Eval.Barray _ -> Alcotest.failf "%s is an array" x)
             seq_decls))

let test_store_sequences =
  prop ~count:2_000 "Absint lanes = Eval per pid after a store sequence"
    QCheck2.Gen.(pair (oneofl [ 1; 2; 3; 4; 5; 7; 8 ]) stores_gen)
    (fun (n, body) ->
      let shown =
        String.concat "; "
          (List.map (fun (x, e) -> x ^ " = " ^ Ast_printer.expr_to_string e) body)
      in
      let fail fmt = QCheck2.Test.fail_reportf ("%s at P=%d: " ^^ fmt) shown n in
      (* sema types a logical scalar as the logical it holds *)
      let rec typed (e : Ast.expr) =
        match e with
        | Ast.Var v when List.mem v (names_of Ast.Logical) -> Ast.Logical_const false
        | Ast.Bin (op, a, b) -> Ast.Bin (op, typed a, typed b)
        | Ast.Un (op, a) -> Ast.Un (op, typed a)
        | Ast.Funcall (f, args) -> Ast.Funcall (f, List.map typed args)
        | e -> e
      in
      List.iter
        (fun (x, e) ->
          match Sema.expr_type (as_source (typed e)) with
          | None -> ignore (fail "sema rejects %s's value" x)
          | Some _ -> ())
        body;
      let lanes = Absint.stores ~nprocs:n seq_decls body in
      let pid_ok p = function
        | None -> true
        | Some vs ->
          List.for_all2
            (fun ((x, ty), v) l ->
              let lane = Absdom.at l p in
              (has_type ty v
               || fail "pid %d: Eval leaves %s = %s, declared %s" p x (Value.to_string v)
                    (Ast_printer.dtype_name ty))
              && (same_bits lane v
                 || fail "pid %d: %s lane %s, Eval %s" p x (pp_pv lane) (Value.to_string v)))
            (List.combine seq_decls vs) lanes
      in
      Array.for_all Fun.id (Array.mapi pid_ok (eval_stores ~nprocs:n body)))

(* --- the walk's guard path ------------------------------------------------ *)

(* Integers in and out of [0, P-1], with the ends of int among them. *)
let int_around n =
  QCheck2.Gen.(
    frequency
      [ (6, int_range (-3) (n + 2));
        (1, oneofl [ min_int; min_int + 1; max_int - 1; max_int ]);
        (1, int_range (-1000) 2000) ])

(* A guard over the scalars of [guard_bindings], with whether the path
   must decide it (every leaf it reads decided, [my$p] the pid vector)
   and whether it holds an atom at all. *)
let guard_gen n ~pid_ok ~u2 =
  let open QCheck2.Gen in
  let pid = Ast.Var "my$p" in
  (* an integer operand: (expression, uniform and known) *)
  let operand =
    frequency
      [ (3, map (fun c -> (Ast.Int_const c, true)) (int_around n));
        (2, return (Ast.Var "u1", true));
        (1, return (Ast.Var "u2", true));
        (1, map (fun c -> (Ast.Bin (Ast.Add, Ast.Var "u1", Ast.Int_const c), true)) (int_range (-2) 2));
        (1, return (Ast.Var "d1", false));
        (1, return (Ast.Var "uk", false)) ]
  in
  let rel =
    let* op = oneofl Ast.[ Eq; Ne; Lt; Le; Gt; Ge ] in
    let* e, ok = operand in
    let* flip = bool in
    return ((if flip then Ast.Bin (op, e, pid) else Ast.Bin (op, pid, e)), ok)
  in
  let modulo =
    let* k, kok =
      frequency
        [ (6, map (fun k -> (Ast.Int_const k, true)) (int_range 1 6));
          (1, map (fun k -> (Ast.Int_const k, false)) (int_range (-3) 0));
          (1, return (Ast.Var "u2", u2 >= 1)) ]
    in
    let* r, rok =
      frequency
        [ (5, map (fun r -> (Ast.Int_const r, true)) (int_range (-2) 8)); (1, operand) ]
    in
    let* flip = bool in
    let m = Ast.Funcall ("mod", [ pid; k ]) in
    return ((if flip then Ast.Bin (Ast.Eq, r, m) else Ast.Bin (Ast.Eq, m, r)), kok && rok)
  in
  let term =
    frequency
      [ (2, return (Ast.Bin (Ast.Ne, Ast.Var "u1", Ast.Var "u2"), true));
        (1, return (Ast.Bin (Ast.Eq, Ast.Var "u1", Ast.Var "u2"), true));
        (1, return (Ast.Var "b1", true));
        (1, map (fun b -> (Ast.Logical_const b, true)) bool);
        (1, return (Ast.Bin (Ast.Eq, Ast.Var "uk", Ast.Int_const 1), false));
        (1, return (Ast.Bin (Ast.Lt, Ast.Var "d1", Ast.Int_const 3), false)) ]
  in
  let rec tree d =
    let leaf =
      frequency
        [ (4, map (fun (e, ok) -> (e, ok && pid_ok, true)) rel);
          (3, map (fun (e, ok) -> (e, ok && pid_ok, true)) modulo);
          (1, map (fun (e, ok) -> (e, ok, false)) term) ]
    in
    if d = 0 then leaf
    else
      frequency
        [ (2, leaf);
          ( 3,
            let* op = oneofl Ast.[ And; Or ] in
            let* a, oka, ha = tree (d - 1) in
            let* b, okb, hb = tree (d - 1) in
            return (Ast.Bin (op, a, b), oka && okb, ha || hb) );
          (1, map (fun (a, ok, h) -> (Ast.Un (Ast.Not, a), ok, h)) (tree (d - 1))) ]
  in
  let* d = int_range 0 3 in
  tree d

(* The scalars a guard reads: uniform integers u1 and u2, a uniform
   logical b1, a uniform unknown uk and per-pid integers d1; now and
   then [my$p] holds something other than the pid vector. *)
let guard_case_gen =
  let open QCheck2.Gen in
  let* n = oneofl [ 1; 2; 7; 64; 1024 ] in
  let* u1 = int_around n and* u2 = int_around n and* b1 = bool and* c = int_range (-3) 3 in
  let* me =
    frequency
      [ (8, return None);
        (1, return (Some (Absdom.Uni (Absdom.Pint 0))));
        (1, return (Some (Absdom.app2 ~n Absdom.Add (Absdom.myproc ~n) (Absdom.Uni (Absdom.Pint 1)))));
        (1, return (Some (Absdom.divergent_unknown ~n))) ]
  in
  let pid_ok = match me with None -> true | Some v -> Absdom.identical v (Absdom.myproc ~n) in
  let bindings =
    (match me with Some v -> [ ("my$p", v) ] | None -> [])
    @ [ ("u1", Absdom.Uni (Absdom.Pint u1)); ("u2", Absdom.Uni (Absdom.Pint u2));
        ("b1", Absdom.Uni (Absdom.Pbool b1)); ("uk", Absdom.unknown);
        ("d1", Absdom.app2 ~n Absdom.Add (Absdom.myproc ~n) (Absdom.Uni (Absdom.Pint c))) ]
  in
  let* act =
    frequency
      [ (2, return (Iset.range 0 (n - 1)));
        ( 2,
          map
            (fun ivs -> Iset.of_intervals (List.map (fun (a, b) -> (min a b, max a b)) ivs))
            (list_size (int_range 0 4) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))) );
        ( 1,
          let* lo = int_range 0 (n - 1) in
          let* hi = int_range lo (n - 1) in
          let* step = int_range 1 5 in
          return (Iset.of_triplet (Triplet.make ~lo ~hi ~step)) ) ]
  in
  let* cond, decided, atom = guard_gen n ~pid_ok ~u2 in
  return (n, bindings, act, cond, decided && atom)

let pp_truth = function
  | Absdom.T_true -> "true"
  | Absdom.T_false -> "false"
  | Absdom.T_unknown_uniform -> "unknown-uniform"
  | Absdom.T_divergent -> "divergent"
  | Absdom.T_split (t, f) -> Fmt.str "split %a / %a" Iset.pp t Iset.pp f

(* The walk decides a processor guard's IF as a pid set; that must be
   what [Absdom.truth] makes of the condition's lanes, sets built alike,
   and the path must decide every guard whose leaves are decided. *)
let test_guard_path =
  prop ~count:3_000 "guard path = Absdom.truth of the condition's lanes"
    ~print:(fun (n, bindings, act, cond, decided) ->
      Fmt.str "P=%d act=%a %s [%s] decided=%b" n Iset.pp act (Ast_printer.expr_to_string cond)
        (String.concat "; "
           (List.map
              (fun (x, v) -> x ^ "=" ^ if Absdom.is_uniform v then pp_pv (Absdom.at v 0) else "per-pid")
              bindings))
        decided)
    guard_case_gen
    (fun (n, bindings, act, cond, decided) ->
      match Absint.guard ~nprocs:n bindings ~act cond with
      | Some t, lanes ->
        t = lanes || QCheck2.Test.fail_reportf "path %s, lanes %s" (pp_truth t) (pp_truth lanes)
      | None, lanes -> (not decided) || QCheck2.Test.fail_reportf "not decided (lanes %s)" (pp_truth lanes))

(* Where the path must leave the guard to the lanes. *)
let test_guard_fallback () =
  let n = 8 in
  let pid = Ast.Var "my$p" and int i = Ast.Int_const i in
  let bindings =
    [ ("u", Absdom.Uni (Absdom.Pint 3)); ("uk", Absdom.unknown);
      ("d", Absdom.myproc ~n) ]
  in
  let path ?(bindings = bindings) cond =
    fst (Absint.guard ~nprocs:n bindings ~act:(Iset.range 0 (n - 1)) cond)
  in
  let modp k = Ast.Funcall ("mod", [ pid; int k ]) in
  List.iter
    (fun (what, cond) -> Alcotest.check Alcotest.bool what true (path cond = None))
    [ ("mod by 0", Ast.Bin (Ast.Eq, modp 0, int 0));
      ("mod by -2", Ast.Bin (Ast.Eq, modp (-2), int 0));
      ("uniform unknown operand", Ast.Bin (Ast.Eq, pid, Ast.Var "uk"));
      ("per-pid operand", Ast.Bin (Ast.Le, pid, Ast.Var "d"));
      ("uniform unknown term", Ast.Bin (Ast.And, Ast.Bin (Ast.Eq, pid, Ast.Var "u"), Ast.Bin (Ast.Eq, Ast.Var "uk", int 1)));
      ("no atom", Ast.Bin (Ast.Eq, Ast.Var "u", int 3)) ];
  Alcotest.check Alcotest.bool "my$p not the pid vector" true
    (path ~bindings:(("my$p", Absdom.Uni (Absdom.Pint 0)) :: bindings) (Ast.Bin (Ast.Eq, pid, int 0)) = None);
  Alcotest.check Alcotest.bool "a parity guard is decided" true
    (path (Ast.Bin (Ast.And, Ast.Bin (Ast.Eq, modp 2, int 1), Ast.Bin (Ast.Le, pid, int 5)))
     = Some (Absdom.T_split (Iset.of_list [ 1; 3; 5 ], Iset.of_list [ 0; 2; 4; 6; 7 ])))

(* Two integer lanes skip the Value round trip; each operator must give
   what lifting Value's operation gives, bit for bit. *)
let test_pv2_ints =
  let ops =
    Absdom.[ Add; Sub; Mul; Div; Pow; Mod; Eq; Ne; Lt; Le; Gt; Ge; And; Or; Max; Min; Join ]
  in
  let int_gen =
    QCheck2.Gen.(
      frequency
        [ (4, int_range (-9) 9);
          (2, oneofl [ min_int; min_int + 1; -1; 0; 1; max_int - 1; max_int ]);
          (2, int) ])
  in
  prop ~count:5_000 "pv2 on two integers = lift2 through Value"
    QCheck2.Gen.(triple (oneofl ops) int_gen int_gen)
    (fun (op, x, y) ->
      let a = Absdom.Pint x and b = Absdom.Pint y in
      let via f = Absdom.lift (function [ a; b ] -> f a b | _ -> assert false) [ a; b ] in
      let rel r = via (fun a b -> Value.of_bool (Value.relation r a b)) in
      let want =
        match op with
        | Absdom.Add -> via Value.add
        | Absdom.Sub -> via Value.sub
        | Absdom.Mul -> via Value.mul
        | Absdom.Div -> via Value.div
        | Absdom.Pow -> via Value.pow
        | Absdom.Mod -> via Value.modulo
        | Absdom.Eq -> rel Ast.Eq
        | Absdom.Ne -> rel Ast.Ne
        | Absdom.Lt -> rel Ast.Lt
        | Absdom.Le -> rel Ast.Le
        | Absdom.Gt -> rel Ast.Gt
        | Absdom.Ge -> rel Ast.Ge
        | Absdom.Max -> via Value.max
        | Absdom.Min -> via Value.min
        | Absdom.And | Absdom.Or -> Absdom.Punk  (* Kleene logic of two integers *)
        | Absdom.Join -> if x = y then a else Absdom.Punk
      in
      let got = Absdom.pv2 op a b in
      pv_eq got want || QCheck2.Test.fail_reportf "%d, %d: %s, want %s" x y (pp_pv got) (pp_pv want))

let suite =
  [
    test_roundtrip;
    test_app2;
    test_app2_shortcuts;
    test_app1;
    test_store;
    test_blend;
    test_select;
    test_truth;
    test_restrict_pids;
    test_align_many;
    test_scalar_semantics;
    Alcotest.test_case "uniform vs divergent unknown" `Quick
      test_unknown_distinction;
    test_store_sequences;
    test_guard_path;
    Alcotest.test_case "guard path: where the lanes decide" `Quick test_guard_fallback;
    test_pv2_ints;
  ]
