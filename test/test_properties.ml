(* Deeper property-based tests: the dependence tester against brute-force
   iteration enumeration, region algebra against element-wise semantics,
   and closed-form fitting against direct evaluation. *)

open Fd_support
open Fd_frontend
open Fd_analysis

let prop ?(count = 300) ?print name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ?print ~name gen f)

(* --- Dependence vs brute force ------------------------------------------ *)

(* One loop, one statement: a(c*i + cw) = ... a(c*i + cr) ... over
   [do i = lo, hi, step] with steps of either sign and c in {1, 2, 3}, so
   the distance (cw - cr) / c may be no whole number of elements, or of
   iterations.  Brute-force the flow dependences and check true_dep
   covers them (it may be conservative, never unsound). *)
let dep_case_gen =
  QCheck2.Gen.(
    let* lo = int_range 30 50 in
    let* trip = int_range 1 10 in
    let* step = oneofl [ -3; -2; -1; 1; 2; 3 ] in
    let* slack = int_range 0 (abs step - 1) in
    let* c = int_range 1 3 in
    let* cw = int_range 0 6 in
    let* cr = int_range 0 6 in
    let hi = lo + (step * (trip - 1)) + (if step > 0 then slack else -slack) in
    return (lo, hi, step, c, cw, cr))

let print_case (lo, hi, step, c, cw, cr) =
  Fmt.str "do i = %d, %d, %d: a(%d*i+%d) = a(%d*i+%d)" lo hi step c cw c cr

let brute_force_flow (lo, hi, step, c, cw, cr) =
  (* is there a write iteration t1 and a read iteration t2 with t1 < t2
     and c*i(t1) + cw = c*i(t2) + cr?  (same-iteration read happens
     before write here, so equality does not create a flow dependence) *)
  let iters = List.init (((hi - lo) / step) + 1) (fun t -> lo + (t * step)) in
  List.exists
    (fun (t1, i1) ->
      List.exists (fun (t2, i2) -> t1 < t2 && (c * i1) + cw = (c * i2) + cr) (List.mapi (fun t i -> (t, i)) iters))
    (List.mapi (fun t i -> (t, i)) iters)

let make_refs (lo, hi, step, c, cw, cr) =
  let src =
    Fmt.str
      "program p\n  real a(300)\n  integer i\n  do i = %d, %d, %d\n    a(%d*i+%d) = a(%d*i+%d)\n  enddo\nend\n"
      lo hi step c cw c cr
  in
  let cu = List.hd (Sema.check_source src).Sema.units in
  let refs = Sections.collect cu.Sema.symtab cu.Sema.unit_.Ast.body in
  let w = List.find (fun r -> r.Sections.is_write) refs in
  let r = List.find (fun r -> not r.Sections.is_write) refs in
  (w, r)

let dep_brute_force =
  prop "true_dep covers brute-force flow dependences" ~print:print_case dep_case_gen
    (fun case ->
      let w, r = make_refs case in
      let d = Dependence.true_dep w r in
      let actual = brute_force_flow case in
      (* soundness: an actual carried dependence must be reported *)
      (not actual) || d.Dependence.carried <> [])

let dep_exactness =
  (* for strong-SIV single-variable cases the test is exact, not just
     conservative: a distance that is not a whole number of iterations
     never meets *)
  prop "true_dep is exact on strong SIV" ~print:print_case dep_case_gen
    (fun case ->
      let w, r = make_refs case in
      let d = Dependence.true_dep w r in
      brute_force_flow case = (d.Dependence.carried <> []))

(* --- Region algebra vs element-wise semantics ----------------------------- *)

let box_gen =
  QCheck2.Gen.(
    let* lo1 = int_range 0 8 in
    let* len1 = int_range 0 6 in
    let* lo2 = int_range 0 8 in
    let* len2 = int_range 0 6 in
    return [ Triplet.range lo1 (lo1 + len1); Triplet.range lo2 (lo2 + len2) ])

let region_gen =
  QCheck2.Gen.(
    let* boxes = list_size (int_range 0 3) box_gen in
    return (List.fold_left (fun acc b -> Region.union acc (Region.of_triplets b))
              (Region.empty 2) boxes))

let elements r =
  let out = ref [] in
  for x = 0 to 20 do
    for y = 0 to 20 do
      if Region.mem [| x; y |] r then out := (x, y) :: !out
    done
  done;
  List.sort compare !out

let region_props =
  [
    prop ~count:200 "region diff/inter element-wise"
      QCheck2.Gen.(pair region_gen region_gen)
      (fun (a, b) ->
        let ea = elements a and eb = elements b in
        let ed = elements (Region.diff a b) and ei = elements (Region.inter a b) in
        ed = List.filter (fun x -> not (List.mem x eb)) ea
        && ei = List.filter (fun x -> List.mem x eb) ea);
    prop ~count:200 "region union element-wise and count-exact"
      QCheck2.Gen.(pair region_gen region_gen)
      (fun (a, b) ->
        let u = Region.union a b in
        elements u = List.sort_uniq compare (elements a @ elements b)
        && Region.count u = List.length (elements u));
  ]

(* --- Fit: closed forms evaluate back to the data -------------------------- *)

let eval_expr_at_p (e : Ast.expr) (p : int) : int =
  let rec go e =
    match e with
    | Ast.Int_const n -> n
    | Ast.Var "my$p" -> p
    | Ast.Bin (Ast.Add, a, b) -> go a + go b
    | Ast.Bin (Ast.Sub, a, b) -> go a - go b
    | Ast.Bin (Ast.Mul, a, b) -> go a * go b
    | Ast.Bin (Ast.Div, a, b) -> go a / go b
    | Ast.Funcall ("min", args) -> List.fold_left min max_int (List.map go args)
    | Ast.Funcall ("max", args) -> List.fold_left max min_int (List.map go args)
    | Ast.Funcall ("tab$", sel :: consts) -> go (List.nth consts (go sel))
    | Ast.Funcall ("mod", [ a; b ]) -> go a mod go b
    | Ast.Un (Ast.Neg, a) -> -go a
    | _ -> failwith "unexpected expr"
  in
  go e

let fit_roundtrip =
  prop ~count:300 "expr_of_values evaluates back to the data"
    QCheck2.Gen.(
      let* n = int_range 1 8 in
      let* values = array_size (return n) (int_range (-40) 40) in
      return values)
    (fun values ->
      let e =
        Fd_core.Fit.expr_of_lanes
          (Array.to_list (Array.mapi (fun p v -> (p, p, Lanes.Sconst v)) values))
      in
      Array.for_all Fun.id
        (Array.mapi (fun p v -> eval_expr_at_p e p = v) values))

let fit_procset_roundtrip =
  prop ~count:300 "fit_procset reproduces the per-processor sets"
    QCheck2.Gen.(
      let* n = int_range 2 8 in
      let* kind = int_range 0 2 in
      let* extent = int_range 4 60 in
      return (n, kind, extent))
    (fun (nprocs, kind, extent) ->
      let dist =
        match kind with
        | 0 -> Fd_machine.Layout.Block (Fd_machine.Layout.block_size_for ~nprocs (1, extent))
        | 1 -> Fd_machine.Layout.Cyclic
        | _ -> Fd_machine.Layout.Block 2
      in
      let layout =
        { Fd_machine.Layout.bounds = [ (1, extent) ]; dist_dim = Some 0; dist }
      in
      let owned = Array.init nprocs (Fd_machine.Layout.owned_one layout ~nprocs) in
      match Fd_core.Fit.fit (Dense_fit.family_of_array owned) with
      | None -> true  (* multi-triplet family (e.g. small block size): allowed *)
      | Some { Fd_core.Fit.f_lo; f_hi; f_step; f_guard } ->
        let ok = ref true in
        for p = 0 to nprocs - 1 do
          let participates =
            match f_guard with
            | None -> true
            | Some g -> (
              let rec truth e =
                match e with
                | Ast.Logical_const b -> b
                | Ast.Bin (Ast.Le, a, b) -> eval_expr_at_p a p <= eval_expr_at_p b p
                | Ast.Bin (Ast.Ge, a, b) -> eval_expr_at_p a p >= eval_expr_at_p b p
                | Ast.Bin (Ast.Eq, a, b) -> eval_expr_at_p a p = eval_expr_at_p b p
                | Ast.Bin (Ast.And, a, b) -> truth a && truth b
                | _ -> failwith "unexpected guard"
              in
              truth g)
          in
          let set =
            if not participates then Iset.empty
            else
              let lo = eval_expr_at_p f_lo p
              and hi = eval_expr_at_p f_hi p
              and step = eval_expr_at_p f_step p in
              if hi < lo then Iset.empty
              else Iset.of_triplet (Triplet.make ~lo ~hi ~step)
          in
          if not (Iset.equal set owned.(p)) then ok := false
        done;
        !ok)

(* The closed-form families against the dense oracle: on Block, Cyclic
   and Block_cyclic layouts (under-sized tails included), loop ranges
   that are empty, cut the layout or run past it, and shifts of 0..3
   either way, the partition holds every processor's set exactly as the
   dense intersection builds it (triplet for triplet, as [fdc partition]
   prints them), its shifted need leaves the same nonlocal sets, and
   [Fit] prints the bounds and guard the dense search prints. *)
let closed_form_matches_dense =
  prop ~count:1000 "closed-form partitions print what the dense search prints"
    ~print:(fun (l, nprocs, t, shift, c) ->
      Fmt.str "P=%d %a bounds=%d:%d range=%a shift=%d need shift=%d" nprocs
        Fd_machine.Layout.pp l (fst (List.hd l.Fd_machine.Layout.bounds))
        (snd (List.hd l.Fd_machine.Layout.bounds)) Triplet.pp t shift c)
    QCheck2.Gen.(
      let* nprocs = int_range 1 70 in
      let* lo = int_range (-3) 3 in
      let* ext = int_range 1 80 in
      let* kind = int_range 0 2 in
      let* b = int_range 1 6 in
      let dist =
        match kind with
        | 0 -> Fd_machine.Layout.Block (Fd_machine.Layout.block_size_for ~nprocs (lo, lo + ext - 1))
        | 1 -> Fd_machine.Layout.Cyclic
        | _ -> Fd_machine.Layout.Block_cyclic b
      in
      let* rlo = int_range (lo - 4) (lo + ext + 2) in
      let* len = int_range (-2) (ext + 6) in
      let* step = oneofl [ 1; 1; 2; 3 ] in
      let* shift = int_range (-3) 3 in
      let* c = int_range (-3) 3 in
      return
        ( { Fd_machine.Layout.bounds = [ (lo, lo + ext - 1) ]; dist_dim = Some 0; dist },
          nprocs, Triplet.make ~lo:rlo ~hi:(rlo + len) ~step, shift, c ))
    (fun (layout, nprocs, range, shift, c) ->
      let module L = Fd_machine.Layout in
      let fam = L.partition layout ~nprocs ~shift range in
      let dense =
        Array.init nprocs (fun p ->
            Iset.inter (Iset.shift (-shift) (L.owned_one layout ~nprocs p)) (Iset.of_triplet range))
      in
      let same_sets a b = List.map Iset.triplets a = List.map Iset.triplets b in
      let show = Option.map (fun e -> Ast_printer.expr_to_string e) in
      let printed_new =
        Option.map
          (fun { Fd_core.Fit.f_lo; f_hi; f_step; f_guard } ->
            (show (Some f_lo), show (Some f_hi), show (Some f_step), show f_guard))
          (Fd_core.Fit.fit fam)
      and printed_dense =
        Option.map
          (fun { Dense_fit.f_lo; f_hi; f_step; f_guard } ->
            (show (Some f_lo), show (Some f_hi), show (Some f_step), show f_guard))
          (Dense_fit.fit_procset_opt dense)
      in
      let need = Lanes.shift c fam in
      let dense_nonlocal =
        List.init nprocs (fun p ->
            Iset.diff (Iset.shift c dense.(p)) (L.owned_one layout ~nprocs p))
      in
      same_sets (Lanes.to_list fam) (Array.to_list dense)
      && Fd_core.Fit.fits fam = (printed_dense <> None)
      && printed_new = printed_dense
      && same_sets (Lanes.to_list (L.nonlocal layout ~nprocs need)) dense_nonlocal)

(* The guard [Fit] prints for a mask of pids, run at each pid by the
   simulator's evaluator, holds on exactly the mask's pids: masks of
   random intervals, and single pids at a stride of 2 to 5 that start
   and end anywhere (bounds needed or not), also with one pid added or
   dropped, at P up to 70 and at 1024. *)
let printed_guard_means_mask =
  prop ~count:400 "printed guards hold on exactly their mask's pids"
    ~print:(fun (nprocs, mask) ->
      Fmt.str "P=%d mask=%s" nprocs
        (String.concat "," (List.map (fun (l, u) -> Fmt.str "%d-%d" l u) mask)))
    QCheck2.Gen.(
      let* nprocs = frequency [ (9, int_range 1 70); (1, return 1024) ] in
      let pid = int_range 0 (nprocs - 1) in
      let random =
        list_size (int_range 0 5) (pair pid pid)
        |> map (List.map (fun (a, b) -> (min a b, max a b)))
      in
      let strided =
        let* k = int_range 2 5 in
        let* first = frequency [ (1, int_range 0 (min (k - 1) (nprocs - 1))); (1, pid) ] in
        let* last = frequency [ (1, return (nprocs - 1)); (1, int_range first (nprocs - 1)) ] in
        let pids = List.filter (fun p -> (p - first) mod k = 0) (List.init (max 0 (last - first + 1)) (( + ) first)) in
        let* nudge = frequency [ (3, return None); (1, map Option.some pid) ] in
        let pids =
          match nudge with
          | Some p when List.mem p pids -> List.filter (( <> ) p) pids
          | Some p -> p :: pids
          | None -> pids
        in
        return (List.map (fun p -> (p, p)) pids)
      in
      let* ivs = frequency [ (1, random); (2, strided) ] in
      return (nprocs, Iset.intervals (Iset.of_intervals ivs)))
    (fun (nprocs, mask) ->
      let inside p = List.exists (fun (l, u) -> l <= p && p <= u) mask in
      match Fd_core.Fit.guard_of_mask ~nprocs mask with
      | None -> List.for_all inside (List.init nprocs Fun.id)
      | Some g ->
        Array.for_all Fun.id
          (Array.mapi
             (fun p v ->
               v = Some (Value.of_bool (inside p))
               || QCheck2.Test.fail_reportf "%s at pid %d" (Ast_printer.expr_to_string g) p)
             (Test_absdom.eval_lanes ~nprocs g)))

let suite =
  [ dep_brute_force; dep_exactness; fit_roundtrip; fit_procset_roundtrip;
    closed_form_matches_dense ]
  @ region_props
  @ [ printed_guard_means_mask ]
