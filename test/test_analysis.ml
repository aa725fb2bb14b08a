(* Analysis library tests: affine forms, regions, CFG shape, dataflow
   fixpoints, reference collection, and dependence classification. *)

open Fd_support
open Fd_frontend
open Fd_analysis

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let unit_of src = List.hd (Sema.check_source src).Sema.units

(* --- Affine -------------------------------------------------------------- *)

let empty_symtab () = Symtab.create ~unit_name:"t" ~formal_order:[]

let a_of_expr () =
  let st = empty_symtab () in
  let e = Ast.Bin (Ast.Add, Ast.Bin (Ast.Mul, Ast.Int_const 3, Ast.Var "i"),
                   Ast.Bin (Ast.Sub, Ast.Var "j", Ast.Int_const 4)) in
  match Affine.of_expr st e with
  | Some a ->
    check_int "coeff i" 3 (Affine.coeff_of "i" a);
    check_int "coeff j" 1 (Affine.coeff_of "j" a);
    check_int "const" (-4) (Affine.constant a)
  | None -> Alcotest.fail "should be affine"

let a_nonaffine () =
  let st = empty_symtab () in
  check "i*j is not affine" true
    (Affine.of_expr st (Ast.Bin (Ast.Mul, Ast.Var "i", Ast.Var "j")) = None)

let a_param_fold () =
  let cu = unit_of "program p\n  parameter (n = 8)\n  integer i\n  i = n\nend\n" in
  match Affine.of_expr cu.Sema.symtab (Ast.Bin (Ast.Mul, Ast.Var "n", Ast.Var "i")) with
  | Some a -> check_int "n*i folds to 8i" 8 (Affine.coeff_of "i" a)
  | None -> Alcotest.fail "n*i should fold"

let a_roundtrip () =
  let st = empty_symtab () in
  let a = Affine.add (Affine.var ~coeff:2 "i") (Affine.const (-3)) in
  match Affine.of_expr st (Affine.to_expr a) with
  | Some a' -> check "to_expr/of_expr roundtrip" true (Affine.equal a a')
  | None -> Alcotest.fail "roundtrip failed"

(* --- Region --------------------------------------------------------------- *)

let box lo1 hi1 lo2 hi2 =
  Region.of_triplets [ Triplet.range lo1 hi1; Triplet.range lo2 hi2 ]

let r_diff_frame () =
  (* removing the interior of a square leaves a frame of 4 slabs *)
  let outer = box 1 10 1 10 and inner = box 3 8 3 8 in
  let frame = Region.diff outer inner in
  check_int "frame count" (100 - 36) (Region.count frame);
  check "disjoint from inner" true (Region.count (Region.inter frame inner) = 0);
  check "union restores" true (Region.equal (Region.union frame inner) outer)

let r_subset () =
  check "subset" true (Region.subset (box 2 3 2 3) (box 1 10 1 10));
  check "not subset" false (Region.subset (box 0 3 2 3) (box 1 10 1 10))

(* --- CFG ------------------------------------------------------------------- *)

let cfg_of src = Cfg.build (unit_of src).Sema.unit_.Ast.body

let c_loop_backedge () =
  let cfg = cfg_of "program p\n  integer i, s\n  do i = 1, 3\n    s = s + 1\n  enddo\nend\n" in
  (* find the DO header and check it has a back edge from the body *)
  let header = ref (-1) and body = ref (-1) in
  for i = 0 to Cfg.length cfg - 1 do
    match Cfg.node cfg i with
    | Cfg.Stmt s -> (
      match s.Ast.kind with
      | Ast.Do _ -> header := i
      | Ast.Assign _ -> body := i
      | _ -> ())
    | _ -> ()
  done;
  check "header -> body" true (List.mem !body (Cfg.succs cfg !header));
  check "body -> header (back edge)" true (List.mem !header (Cfg.succs cfg !body));
  check "header -> exit (zero trip)" true (List.mem Cfg.exit_ (Cfg.succs cfg !header))

let c_if_join () =
  let cfg =
    cfg_of
      "program p\n  real x\n  if (x > 0.0) then\n    x = 1.0\n  else\n    x = 2.0\n  endif\n  x = 3.0\nend\n"
  in
  (* the join statement must have two predecessors *)
  let join = ref (-1) in
  for i = 0 to Cfg.length cfg - 1 do
    match Cfg.node cfg i with
    | Cfg.Stmt { Ast.kind = Ast.Assign (_, Ast.Real_const 3.0); _ } -> join := i
    | _ -> ()
  done;
  check_int "join preds" 2 (List.length (Cfg.preds cfg !join))

let c_return_to_exit () =
  let cfg = cfg_of "program p\n  real x\n  return\n  x = 1.0\nend\n" in
  let ret = ref (-1) and after = ref (-1) in
  for i = 0 to Cfg.length cfg - 1 do
    match Cfg.node cfg i with
    | Cfg.Stmt { Ast.kind = Ast.Return; _ } -> ret := i
    | Cfg.Stmt { Ast.kind = Ast.Assign _; _ } -> after := i
    | _ -> ()
  done;
  check "return -> exit only" true (Cfg.succs cfg !ret = [ Cfg.exit_ ]);
  check "unreachable stmt has no preds" true (Cfg.preds cfg !after = [])

(* --- Dataflow: classic liveness as a gen/kill instance of the engine ------- *)

module IS = Set.Make (Int)

module Live = Dataflow.Make (struct
  type t = IS.t

  let bottom = IS.empty
  let join = IS.union
  let equal = IS.equal
end)

let d_genkill_liveness () =
  (* x = 1; y = x; return: x live between def and use *)
  let cfg =
    cfg_of "program p\n  real x, y\n  x = 1.0\n  y = x\nend\n"
  in
  (* facts: live "variable ids": x = 0, y = 1 *)
  let var_id = function "x" -> 0 | "y" -> 1 | _ -> 2 in
  let gen = function
    | Cfg.Stmt { Ast.kind = Ast.Assign (_, Ast.Var v); _ } -> IS.singleton (var_id v)
    | _ -> IS.empty
  and kill = function
    | Cfg.Stmt { Ast.kind = Ast.Assign (Ast.Var v, _); _ } -> IS.singleton (var_id v)
    | _ -> IS.empty
  in
  let transfer _ node fact = IS.union (gen node) (IS.diff fact (kill node)) in
  let r = Live.solve ~direction:Dataflow.Backward ~init:IS.empty ~transfer cfg in
  (* at the def of x (output side, i.e. before it), x is not live; after it, x is live *)
  let def_x = ref (-1) in
  for i = 0 to Cfg.length cfg - 1 do
    match Cfg.node cfg i with
    | Cfg.Stmt { Ast.kind = Ast.Assign (Ast.Var "x", _); _ } -> def_x := i
    | _ -> ()
  done;
  check "x live into its def's input (after stmt in exec order)" true
    (IS.mem 0 r.Live.input.(!def_x));
  check "x not live out of its def (backward output)" false
    (IS.mem 0 r.Live.output.(!def_x))

(* --- Dataflow: the engine against a naive reference ------------------------ *)

(* Facts are bitsets in an int: join is [lor], bottom is 0. *)
module Bits = Dataflow.Make (struct
  type t = int

  let bottom = 0
  let join = ( lor )
  let equal = Int.equal
end)

(* The reference: sweep every node in index order until a whole sweep
   changes nothing.  From all-bottom facts this reaches the least fixed
   point, whatever the engine's worklist does. *)
let naive_solve ~direction ~init ~transfer cfg =
  let n = Cfg.length cfg in
  let flow_in, start =
    match direction with
    | Dataflow.Forward -> (Cfg.preds cfg, Cfg.entry)
    | Dataflow.Backward -> (Cfg.succs cfg, Cfg.exit_)
  in
  let input = Array.make n 0 and output = Array.make n 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      let base = if i = start then init else 0 in
      let fact = List.fold_left (fun acc p -> acc lor output.(p)) base (flow_in i) in
      let out = transfer i fact in
      if fact <> input.(i) || out <> output.(i) then begin
        input.(i) <- fact;
        output.(i) <- out;
        changed := true
      end
    done
  done;
  (input, output)

(* Hand-written bodies the generator does not make: statements after a
   RETURN (no predecessors), RETURN inside loops and branches, empty
   THEN and ELSE branches, and nested loops around them. *)
let oracle_sources =
  [ "program p\n  real x\n  return\n  x = 1.0\nend\n";
    "program p\n  real x\n  integer i\n  if (x > 0.0) then\n  else\n    x = 1.0\n  endif\n  do i = 1, 3\n    if (x > 1.0) then\n      return\n    endif\n    x = x + 1.0\n  enddo\n  x = 2.0\nend\n";
    "program p\n  real x\n  integer i, j\n  do i = 1, 3\n    do j = 1, 3\n      if (x > 0.0) then\n        x = 0.0\n      else\n      endif\n    enddo\n    return\n    x = 3.0\n  enddo\n  if (x > 0.0) then\n  endif\nend\n";
    "program p\n  real x\n  integer i\n  do i = 1, 3\n  enddo\n  if (x > 0.0) then\n    return\n  else\n    return\n  endif\n  x = 1.0\n  do i = 1, 2\n    x = x + 1.0\n  enddo\nend\n" ]

(* Every unit body of a generated program or of a hand-written one. *)
let oracle_bodies seed =
  let st = Random.State.make [| seed |] in
  let src =
    if seed mod 3 = 0 then List.nth oracle_sources (seed / 3 mod List.length oracle_sources)
    else if seed mod 3 = 1 then Fd_workloads.Gen.random_source st
    else Fd_workloads.Gen.random_source2d st
  in
  List.map (fun cu -> cu.Sema.unit_.Ast.body) (Sema.check_source src).Sema.units

let d_engine_matches_naive =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"dataflow solve == naive sweep (random gen/kill)"
       QCheck2.Gen.(pair (int_bound 100_000) bool)
       (fun (seed, forward) ->
         let direction = if forward then Dataflow.Forward else Dataflow.Backward in
         let st = Random.State.make [| seed; 7 |] in
         List.for_all
           (fun body ->
             let cfg = Cfg.build body in
             let n = Cfg.length cfg in
             let bits () = Random.State.bits st land 0xfffff in
             let gen = Array.init n (fun _ -> bits () land bits ()) in
             let kill = Array.init n (fun _ -> bits () land bits ()) in
             let init = bits () in
             let transfer i fact = fact land lnot kill.(i) lor gen.(i) in
             let r = Bits.solve ~direction ~init ~transfer:(fun i _ f -> transfer i f) cfg in
             let input, output = naive_solve ~direction ~init ~transfer cfg in
             r.Bits.input = input && r.Bits.output = output
             || QCheck2.Test.fail_reportf "seed %d %s: %d nodes differ from the reference"
                  seed (if forward then "forward" else "backward") n)
           (oracle_bodies seed)))

(* --- Sections --------------------------------------------------------------- *)

let refs_of src =
  let cu = unit_of src in
  Sections.collect cu.Sema.symtab cu.Sema.unit_.Ast.body

let s_collect () =
  let refs =
    refs_of
      "program p\n  real a(10)\n  integer i\n  do i = 2, 9\n    a(i) = a(i-1) + a(i+1)\n  enddo\nend\n"
  in
  let writes = List.filter (fun r -> r.Sections.is_write) refs in
  let reads = List.filter (fun r -> not r.Sections.is_write) refs in
  check_int "one write" 1 (List.length writes);
  check_int "two reads" 2 (List.length reads);
  check_int "loop depth" 1 (List.length (List.hd writes).Sections.loops)

let s_region_of_ref () =
  let refs =
    refs_of
      "program p\n  real a(100)\n  integer i\n  do i = 1, 50\n    a(2*i) = 0.0\n  enddo\nend\n"
  in
  let w = List.find (fun r -> r.Sections.is_write) refs in
  let region = Sections.region_of_ref ~declared:[ (1, 100) ] w in
  check_int "strided region count" 50 (Region.count region);
  check "even elements" true (Region.mem [| 4 |] region);
  check "odd excluded" false (Region.mem [| 5 |] region)

let s_triangular_widening () =
  (* j's bounds depend on k: the region widens to the hull *)
  let refs =
    refs_of
      "program p\n  real a(10,10)\n  integer k, j\n  do k = 1, 9\n    do j = k+1, 10\n      a(k,j) = 0.0\n    enddo\n  enddo\nend\n"
  in
  let w = List.find (fun r -> r.Sections.is_write) refs in
  let region = Sections.region_of_ref ~declared:[ (1, 10); (1, 10) ] w in
  check "covers (1,2)" true (Region.mem [| 1; 2 |] region);
  check "hull includes (9,10)" true (Region.mem [| 9; 10 |] region)

(* --- Dependence --------------------------------------------------------------- *)

let dep_between src =
  let refs = refs_of src in
  let w = List.find (fun r -> r.Sections.is_write) refs in
  let r = List.find (fun r -> not r.Sections.is_write) refs in
  Dependence.true_dep w r

let d_forward_shift_no_dep () =
  (* a(i) = f(a(i+5)): read happens before write of same element -> no flow dep *)
  let d =
    dep_between
      "program p\n  real a(100)\n  integer i\n  do i = 1, 95\n    a(i) = a(i+5)\n  enddo\nend\n"
  in
  check "not carried" true (d.Dependence.carried = []);
  check "not loop independent" false d.Dependence.loop_independent

let d_backward_shift_carried () =
  (* a(i) = a(i-1): flow dep carried at level 1 with distance 1 *)
  let d =
    dep_between
      "program p\n  real a(100)\n  integer i\n  do i = 2, 100\n    a(i) = a(i-1)\n  enddo\nend\n"
  in
  check "carried at level 1" true (d.Dependence.carried = [ 1 ])

let d_2d_inner_carried () =
  (* a(i,j) = a(i,j-1): carried at the inner (level 2) loop only *)
  let d =
    dep_between
      "program p\n  real a(10,10)\n  integer i, j\n  do i = 1, 10\n    do j = 2, 10\n      a(i,j) = a(i,j-1)\n    enddo\n  enddo\nend\n"
  in
  check "carried at level 2" true (d.Dependence.carried = [ 2 ])

let d_ziv_independent () =
  let d =
    dep_between
      "program p\n  real a(100)\n  integer i\n  do i = 1, 100\n    a(1) = a(2)\n  enddo\nend\n"
  in
  check "ZIV disproves" true
    (d.Dependence.carried = [] && not d.Dependence.loop_independent)

let d_loop_independent () =
  (* write a(i) then read a(i) in a later statement: loop-independent *)
  let refs =
    refs_of
      "program p\n  real a(100), b(100)\n  integer i\n  do i = 1, 100\n    a(i) = 1.0\n    b(i) = a(i)\n  enddo\nend\n"
  in
  let w = List.find (fun r -> r.Sections.is_write && r.Sections.array = "a") refs in
  let r =
    List.find (fun r -> (not r.Sections.is_write) && r.Sections.array = "a") refs
  in
  let d = Dependence.true_dep w r in
  check "loop independent" true d.Dependence.loop_independent;
  check "not carried" true (d.Dependence.carried = [])

let d_distance_exceeds_trip () =
  (* distance 50 in a 10-trip loop: no dependence *)
  let d =
    dep_between
      "program p\n  real a(100)\n  integer i\n  do i = 51, 60\n    a(i) = a(i-50)\n  enddo\nend\n"
  in
  check "clipped by trip count" true (d.Dependence.carried = [])

(* Every read of [a] against its one write. *)
let deps_of_reads src =
  let refs = refs_of src in
  let w = List.find (fun r -> r.Sections.is_write) refs in
  List.filter_map
    (fun r -> if r.Sections.is_write then None else Some (Dependence.true_dep w r))
    refs

let red_sweep lo hi step =
  Fmt.str
    "program p\n  real a(100)\n  integer i\n  do i = %d, %d, %d\n    a(i) = 0.5 * (a(i-1) + a(i+1))\n  enddo\nend\n"
    lo hi step

let d_red_sweep_independent () =
  (* a red sweep reads only the other colour: i-1 and i+1 are one
     element, half an iteration, away from any write, in both
     directions *)
  List.iter
    (fun (lo, hi, step) ->
      let ds = deps_of_reads (red_sweep lo hi step) in
      check_int "two reads" 2 (List.length ds);
      List.iter
        (fun d ->
          check "not carried" true (d.Dependence.carried = []);
          check "not loop independent" false d.Dependence.loop_independent)
        ds)
    [ (3, 99, 2); (99, 3, -2) ]

let d_whole_stride_carried () =
  (* control: distance 3 at step 3 is one whole iteration *)
  let d =
    dep_between
      "program p\n  real a(100)\n  integer i\n  do i = 4, 99, 3\n    a(i) = a(i-3)\n  enddo\nend\n"
  in
  check "carried at level 1" true (d.Dependence.carried = [ 1 ])

let d_deepest_level () =
  (* a(i,j) = a(i-1,j+1): carried by the outer loop only, so the read's
     message may leave the inner loop *)
  let d =
    dep_between
      "program p\n  real a(10,10)\n  integer i, j\n  do i = 2, 10\n    do j = 1, 9\n      a(i,j) = a(i-1,j+1)\n    enddo\n  enddo\nend\n"
  in
  check "deepest = 1" true (d.Dependence.carried = [ 1 ])

let suite =
  [
    Alcotest.test_case "affine of_expr" `Quick a_of_expr;
    Alcotest.test_case "affine rejects products" `Quick a_nonaffine;
    Alcotest.test_case "affine folds parameters" `Quick a_param_fold;
    Alcotest.test_case "affine expr roundtrip" `Quick a_roundtrip;
    Alcotest.test_case "region diff leaves frame" `Quick r_diff_frame;
    Alcotest.test_case "region subset" `Quick r_subset;
    Alcotest.test_case "cfg loop back edge" `Quick c_loop_backedge;
    Alcotest.test_case "cfg if join" `Quick c_if_join;
    Alcotest.test_case "cfg return to exit" `Quick c_return_to_exit;
    Alcotest.test_case "dataflow liveness" `Quick d_genkill_liveness;
    d_engine_matches_naive;
    Alcotest.test_case "sections collect" `Quick s_collect;
    Alcotest.test_case "sections strided region" `Quick s_region_of_ref;
    Alcotest.test_case "sections triangular widening" `Quick s_triangular_widening;
    Alcotest.test_case "dep forward shift vectorizable" `Quick d_forward_shift_no_dep;
    Alcotest.test_case "dep backward shift carried" `Quick d_backward_shift_carried;
    Alcotest.test_case "dep 2d inner carried" `Quick d_2d_inner_carried;
    Alcotest.test_case "dep ziv independent" `Quick d_ziv_independent;
    Alcotest.test_case "dep loop independent" `Quick d_loop_independent;
    Alcotest.test_case "dep clipped by trip count" `Quick d_distance_exceeds_trip;
    Alcotest.test_case "dep deepest level" `Quick d_deepest_level;
    Alcotest.test_case "dep red sweep independent" `Quick d_red_sweep_independent;
    Alcotest.test_case "dep whole stride carried" `Quick d_whole_stride_carried;
  ]
