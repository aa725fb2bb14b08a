(* Unit and property tests for the support library: triplets and integer
   sets are the scalar kernel under all RSD reasoning, so their algebra is
   tested exhaustively. *)

open Fd_support

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- Triplet unit tests ------------------------------------------------ *)

let t_make () =
  let t = Triplet.make ~lo:1 ~hi:10 ~step:3 in
  check_int "count" 4 (Triplet.count t);
  check_int "normalized hi" 10 (Triplet.hi t);
  let t2 = Triplet.make ~lo:1 ~hi:11 ~step:3 in
  check_int "hi snaps to last member" 10 (Triplet.hi t2);
  check "empty when hi < lo" true (Triplet.is_empty (Triplet.make ~lo:5 ~hi:4 ~step:1))

let t_mem () =
  let t = Triplet.make ~lo:2 ~hi:14 ~step:4 in
  List.iter (fun x -> check (Fmt.str "mem %d" x) true (Triplet.mem x t)) [ 2; 6; 10; 14 ];
  List.iter (fun x -> check (Fmt.str "not mem %d" x) false (Triplet.mem x t))
    [ 1; 3; 4; 15; 18; 0; -2 ]

let t_inter_contig () =
  let a = Triplet.range 1 10 and b = Triplet.range 6 20 in
  let i = Triplet.inter a b in
  check_str "inter" "[6:10]" (Triplet.to_string i)

let t_inter_strided () =
  (* {1,4,7,10,...} with {1,6,11,...}: lcm 15, first common 1 *)
  let a = Triplet.make ~lo:1 ~hi:31 ~step:3 in
  let b = Triplet.make ~lo:1 ~hi:31 ~step:5 in
  let i = Triplet.inter a b in
  check_str "strided inter" "[1:31:15]" (Triplet.to_string i)

let t_inter_empty_phase () =
  (* evens and odds never meet *)
  let a = Triplet.make ~lo:0 ~hi:100 ~step:2 in
  let b = Triplet.make ~lo:1 ~hi:99 ~step:2 in
  check "disjoint phases" true (Triplet.is_empty (Triplet.inter a b))

let t_diff_contig () =
  let a = Triplet.range 1 20 and b = Triplet.range 6 10 in
  let pieces = Triplet.diff a b in
  check_int "two pieces" 2 (List.length pieces);
  check_str "below" "[1:5]" (Triplet.to_string (List.nth pieces 0));
  check_str "above" "[11:20]" (Triplet.to_string (List.nth pieces 1))

let t_diff_strided_minuend () =
  (* {1,4,...,28} minus [10:20] -> {1,4,7} and {22,25,28} *)
  let a = Triplet.make ~lo:1 ~hi:28 ~step:3 in
  let b = Triplet.range 10 20 in
  let pieces = Triplet.diff a b in
  check_int "two pieces" 2 (List.length pieces);
  check_str "below" "[1:7:3]" (Triplet.to_string (List.nth pieces 0));
  check_str "above" "[22:28:3]" (Triplet.to_string (List.nth pieces 1))

let t_shift () =
  let t = Triplet.make ~lo:1 ~hi:25 ~step:1 in
  let s = Triplet.shift 5 t in
  check_str "shift" "[6:30]" (Triplet.to_string s)

let t_of_sorted_list () =
  let ts = Triplet.of_sorted_list [ 1; 2; 3; 7; 9; 11; 20 ] in
  check_str "grouping"
    "[1:3]/[7:11:2]/[20:20]"
    (String.concat "/" (List.map Triplet.to_string ts))

let t_subset () =
  check "strided subset" true
    (Triplet.subset (Triplet.make ~lo:2 ~hi:10 ~step:4) (Triplet.make ~lo:2 ~hi:14 ~step:2));
  check "phase mismatch" false
    (Triplet.subset (Triplet.make ~lo:3 ~hi:11 ~step:4) (Triplet.make ~lo:2 ~hi:14 ~step:2))

(* --- Iset unit tests --------------------------------------------------- *)

let i_union_merges () =
  let a = Iset.range 1 5 and b = Iset.range 6 10 in
  let u = Iset.union a b in
  check_int "canonical single triplet" 1 (List.length (Iset.triplets u));
  check_int "count" 10 (Iset.count u)

let i_diff_exact () =
  let a = Iset.range 1 100 in
  let b = Iset.of_triplet (Triplet.make ~lo:1 ~hi:99 ~step:2) in
  let d = Iset.diff a b in
  check "evens remain" true (Iset.equal d (Iset.of_triplet (Triplet.make ~lo:2 ~hi:100 ~step:2)))

let i_hull () =
  let s = Iset.union (Iset.range 3 5) (Iset.singleton 11) in
  check_str "hull" "[3:11]" (Triplet.to_string (Iset.hull s))

(* --- Property-based tests ---------------------------------------------- *)

let triplet_gen =
  QCheck2.Gen.(
    let* lo = int_range (-30) 30 in
    let* len = int_range 0 40 in
    let* step = int_range 1 7 in
    return (Triplet.make ~lo ~hi:(lo + len) ~step))

let to_set t = List.sort_uniq compare (Triplet.to_list t)

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:500 ~name gen f)

(* --- Iset representation oracle ----------------------------------------

   The element-level canonical form every Iset operation returned before
   sets were grouped straight from their intervals: members collected in
   a [Set.Make (Int)], then [Triplet.of_sorted_list].  It lives only
   here, as the reference the interval-native operations must match
   structurally, triplet for triplet. *)

module IS = Set.Make (Int)

module Ref = struct
  let members ts =
    List.fold_left
      (fun acc tr -> List.fold_left (fun a x -> IS.add x a) acc (Triplet.to_list tr))
      IS.empty ts

  let canon s = Triplet.of_sorted_list (IS.elements s)

  let flat ts =
    List.for_all
      (fun tr -> Triplet.is_empty tr || Triplet.step tr = 1 || Triplet.count tr = 1)
      ts

  (* Maximal runs of consecutive members, as step-1 triplets. *)
  let runs s =
    let close lo hi acc = Triplet.range lo hi :: acc in
    match IS.elements s with
    | [] -> []
    | x :: xs ->
      let lo, hi, acc =
        List.fold_left
          (fun (lo, hi, acc) y ->
            if y = hi + 1 then (lo, y, acc) else (y, y, close lo hi acc))
          (x, x, []) xs
      in
      List.rev (close lo hi acc)

  (* [Iset.of_intervals]: grouped up to 256 members, flat above. *)
  let of_members s =
    let n = IS.cardinal s in
    if n > 0 && n <= 256 then canon s else runs s

  let of_intervals ivs =
    of_members
      (List.fold_left
         (fun acc (a, b) ->
           if a > b then acc else members [ Triplet.range a b ] |> IS.union acc)
         IS.empty ivs)

  let of_triplets ts =
    match List.filter (fun tr -> not (Triplet.is_empty tr)) ts with
    | [] -> []
    | [ tr ] -> [ tr ]
    | ts -> canon (members ts)

  let of_list xs = canon (IS.of_list xs)

  let union a b =
    match (a, b) with
    | [], t | t, [] -> t
    | _ ->
      let s = IS.union (members a) (members b) in
      if flat a && flat b then of_members s else canon s

  let inter a b =
    match (a, b) with
    | [], _ | _, [] -> []
    | [ x ], [ y ] -> of_triplets [ Triplet.inter x y ]
    | _ ->
      if flat a && flat b then of_members (IS.inter (members a) (members b))
      else of_triplets (List.concat_map (fun x -> List.map (Triplet.inter x) b) a)

  let diff a b =
    match (a, b) with
    | [], _ -> []
    | t, [] -> t
    | _ -> (
      let s = IS.diff (members a) (members b) in
      if flat a && flat b then of_members s
      else
        match (a, b) with
        | [ x ], [ y ] when Triplet.step y = 1 -> of_triplets (Triplet.diff x y)
        | _ -> canon s)

  let complement ~lo ~hi t =
    if lo > hi then []
    else of_members (IS.diff (members [ Triplet.range lo hi ]) (members t))

  let intervals t =
    List.map (fun tr -> (Triplet.lo tr, Triplet.hi tr)) (runs (members t))
end

(* Interval endpoints reach both sides of zero; lengths reach past 256. *)
let iv_gen =
  QCheck2.Gen.(
    let* lo = int_range (-300) 300 in
    let* len =
      frequency
        [ (3, return 0); (3, int_range 1 3); (2, int_range 4 40);
          (1, int_range 100 320) ]
    in
    return (lo, lo + len))

let wide_triplet_gen =
  QCheck2.Gen.(
    let* lo = int_range (-300) 300 in
    let* len = frequency [ (3, int_range 0 40); (1, int_range 100 600) ] in
    let* step = frequency [ (2, return 1); (3, int_range 2 7) ] in
    return (Triplet.make ~lo ~hi:(lo + len) ~step))

(* Owner-guard masks over pids [0, P): mostly singletons and short runs,
   the shape of {0,2..7}, with P on both sides of 256. *)
let mask_gen =
  QCheck2.Gen.(
    let* p = oneofl [ 8; 16; 64; 255; 256; 257; 300; 512 ] in
    let* k = int_range 0 8 in
    let* ivs =
      list_repeat k
        (let* lo = int_range 0 (p - 1) in
         let* len = frequency [ (3, return 0); (1, int_range 1 (p / 2)) ] in
         return (lo, min (p - 1) (lo + len)))
    in
    return (Iset.of_intervals ivs))

(* Canonical sets of every origin, plus raw (unsorted, overlapping)
   triplet lists, which the operations also accept. *)
let operand_gen =
  QCheck2.Gen.(
    frequency
      [
        (3, map Iset.of_intervals (list_size (int_range 0 6) iv_gen));
        (3, map Iset.of_triplets (list_size (int_range 0 4) wide_triplet_gen));
        (3, mask_gen);
        (1, list_size (int_range 0 3) wide_triplet_gen);
      ])

let show_set t = Iset.to_string t

let same what got want =
  got = want
  || QCheck2.Test.fail_reportf "%s: got %s, element path %s" what
       (show_set got) (show_set want)

let qcheck_tests =
  [
    prop "inter = element-wise intersection"
      QCheck2.Gen.(pair triplet_gen triplet_gen)
      (fun (a, b) ->
        let expected =
          List.filter (fun x -> List.mem x (to_set b)) (to_set a)
        in
        to_set (Triplet.inter a b) = expected);
    prop "diff = element-wise difference (contiguous subtrahend)"
      QCheck2.Gen.(
        pair triplet_gen
          (let* lo = int_range (-30) 30 in
           let* len = int_range 0 40 in
           return (Triplet.make ~lo ~hi:(lo + len) ~step:1)))
      (fun (a, b) ->
        let expected = List.filter (fun x -> not (Triplet.mem x b)) (to_set a) in
        List.concat_map to_set (Triplet.diff a b) |> List.sort_uniq compare
        = expected);
    prop "diff is sound over-approximation (any strides)"
      QCheck2.Gen.(pair triplet_gen triplet_gen)
      (fun (a, b) ->
        let must_keep = List.filter (fun x -> not (Triplet.mem x b)) (to_set a) in
        let kept = List.concat_map to_set (Triplet.diff a b) in
        List.for_all (fun x -> List.mem x kept) must_keep);
    prop "subset agrees with element-wise subset"
      QCheck2.Gen.(pair triplet_gen triplet_gen)
      (fun (a, b) ->
        let elementwise = List.for_all (fun x -> Triplet.mem x b) (to_set a) in
        (* subset may be conservative (false negatives allowed), never a
           false positive *)
        if Triplet.subset a b then elementwise else true);
    prop "Iset union/inter/diff form a boolean algebra on elements"
      QCheck2.Gen.(pair (list_size (int_range 0 4) triplet_gen)
                     (list_size (int_range 0 4) triplet_gen))
      (fun (xs, ys) ->
        let a = Iset.of_triplets xs and b = Iset.of_triplets ys in
        let u = Iset.union a b and i = Iset.inter a b and d = Iset.diff a b in
        Iset.equal (Iset.union d i) a
        && Iset.count u + Iset.count i = Iset.count a + Iset.count b
        && Iset.disjoint d b);
    prop "Iset canonical form has disjoint increasing triplets"
      QCheck2.Gen.(list_size (int_range 0 5) triplet_gen)
      (fun xs ->
        let s = Iset.of_triplets xs in
        let rec ok = function
          | [] | [ _ ] -> true
          | a :: (b :: _ as rest) -> Triplet.hi a < Triplet.lo b && ok rest
        in
        ok (Iset.triplets s));
    prop "Iset operations match the element-level canonical form"
      QCheck2.Gen.(
        let* a = operand_gen and* b = operand_gen in
        let* ivs = list_size (int_range 0 8) iv_gen in
        let* xs = list_size (int_range 0 40) (int_range (-300) 300) in
        let* lo = int_range (-300) 300 and* len = int_range (-1) 400 in
        return (a, b, ivs, xs, lo, lo + len))
      (fun (a, b, ivs, xs, lo, hi) ->
        let ts = Iset.triplets a @ Iset.triplets b in
        same "of_intervals" (Iset.of_intervals ivs) (Ref.of_intervals ivs)
        && same "union" (Iset.union a b) (Ref.union a b)
        && same "inter" (Iset.inter a b) (Ref.inter a b)
        && same "diff" (Iset.diff a b) (Ref.diff a b)
        && same "complement" (Iset.complement ~lo ~hi a) (Ref.complement ~lo ~hi a)
        && same "of_triplets" (Iset.of_triplets ts) (Ref.of_triplets ts)
        && same "of_list" (Iset.of_list xs) (Ref.of_list xs)
        && Iset.equal a b = IS.equal (Ref.members a) (Ref.members b)
        && Iset.subset a b = IS.subset (Ref.members a) (Ref.members b)
        && Iset.intervals a = Ref.intervals a
        && List.rev (Iset.fold_intervals (fun acc l h -> (l, h) :: acc) [] a)
           = Ref.intervals a);
    prop "Triplet.of_sorted_list round-trips"
      QCheck2.Gen.(list_size (int_range 0 30) (int_range (-50) 50))
      (fun xs ->
        let sorted = List.sort_uniq compare xs in
        List.concat_map Triplet.to_list (Triplet.of_sorted_list sorted) = sorted);
  ]

let suite =
  [
    Alcotest.test_case "triplet make/normalize" `Quick t_make;
    Alcotest.test_case "triplet mem" `Quick t_mem;
    Alcotest.test_case "triplet inter contiguous" `Quick t_inter_contig;
    Alcotest.test_case "triplet inter strided (CRT)" `Quick t_inter_strided;
    Alcotest.test_case "triplet inter phase-disjoint" `Quick t_inter_empty_phase;
    Alcotest.test_case "triplet diff contiguous" `Quick t_diff_contig;
    Alcotest.test_case "triplet diff strided minuend" `Quick t_diff_strided_minuend;
    Alcotest.test_case "triplet shift" `Quick t_shift;
    Alcotest.test_case "of_sorted_list grouping" `Quick t_of_sorted_list;
    Alcotest.test_case "triplet subset" `Quick t_subset;
    Alcotest.test_case "iset union merges" `Quick i_union_merges;
    Alcotest.test_case "iset diff exact" `Quick i_diff_exact;
    Alcotest.test_case "iset hull" `Quick i_hull;
  ]
  @ qcheck_tests
