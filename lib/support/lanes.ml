(* Values of the processor id, piecewise over pid intervals.

   A cover is a sorted list of runs [(lo, hi, seg)]: on the pids
   [lo..hi] the value is a per-run constant ([Sconst c]) or the integer
   [a*pid + b] ([Saff], never with [a = 0] once normalized).  The code
   generator describes per-processor loop bounds and section bounds this
   way (constants are integers), and the verifier describes what a
   scalar holds on every processor (constants are lane values).  The
   constant type is the caller's, so both pass [~const], which makes a
   constant of an integer. *)

type 'c seg = Sconst of 'c | Saff of { a : int; b : int }

type 'c t = (int * int * 'c seg) list

(* Floor and ceiling division, for any sign of either operand. *)
let fdiv a b =
  let q = a / b in
  if (a mod b <> 0) && ((a < 0) <> (b < 0)) then q - 1 else q

let cdiv a b = -fdiv (-a) b

let saff ~const a b = if a = 0 then Sconst (const b) else Saff { a; b }

let seg_at ~const s p = match s with Sconst v -> v | Saff { a; b } -> const ((a * p) + b)

(* Canonicalize a sorted contiguous cover in one pass: empty runs drop,
   singleton affine runs become constants, and neighbours merge when
   [merge] accepts their constants or their affine forms are equal (each
   run into its left neighbour, so a merged run keeps its first
   segment). *)
let norm ~const ~merge (segs : 'c t) : 'c t =
  let mergeable s1 s2 =
    match (s1, s2) with
    | Sconst x, Sconst y -> merge x y
    | Saff x, Saff y -> x.a = y.a && x.b = y.b
    | _ -> false
  in
  let rec go = function
    | (l, u, _) :: rest when l > u -> go rest
    | (l, u, Saff { a; b }) :: rest when l = u -> go ((l, u, Sconst (const ((a * l) + b))) :: rest)
    | ((l1, _, s1) as sg) :: rest -> (
      match go rest with
      | (_, u2, s2) :: rest when mergeable s1 s2 -> (l1, u2, s1) :: rest
      | rest -> sg :: rest)
    | [] -> []
  in
  go segs

(* The value at pid [p], which some run must cover. *)
let at ~const (runs : 'c t) p =
  let rec find = function
    | (l, u, s) :: rest -> if p <= u then (assert (p >= l); seg_at ~const s p) else find rest
    | [] -> invalid_arg "Lanes.at: pid outside the cover"
  in
  find runs

(* Common refinement of two covers of the same pids: chunks on which
   both are a single segment. *)
let align (a : 'a t) (b : 'b t) =
  let rec go sa sb acc =
    match (sa, sb) with
    | [], [] -> List.rev acc
    | (l1, u1, s1) :: ra, (l2, u2, s2) :: rb ->
      assert (l1 = l2);
      let u = min u1 u2 in
      let ra = if u1 > u then (u + 1, u1, s1) :: ra else ra in
      let rb = if u2 > u then (u + 1, u2, s2) :: rb else rb in
      go ra rb ((l1, u, s1, s2) :: acc)
    | _ -> invalid_arg "Lanes.align: covers differ"
  in
  go a b []

(* Common refinement of any number of covers of the same pids, as (lo,
   hi, one segment per cover in order). *)
let align_many (covers : 'c t list) : (int * int * 'c seg list) list =
  let rec go covers acc =
    match covers with
    | [] | [] :: _ -> List.rev acc
    | ((l, _, _) :: _) :: _ ->
      let u =
        List.fold_left (fun u c -> match c with (_, u1, _) :: _ -> min u u1 | [] -> u) max_int covers
      in
      let split = function
        | (_, u1, s) :: r -> (s, if u1 > u then (u + 1, u1, s) :: r else r)
        | [] -> invalid_arg "Lanes.align_many: covers differ"
      in
      let here, rest = List.split (List.map split covers) in
      go rest ((l, u, here) :: acc)
  in
  go covers []

(* The runs clipped to the sorted disjoint pid intervals [ivs], in one
   sweep. *)
let clip (runs : 'c t) (ivs : (int * int) list) : 'c t =
  let rec go runs ivs acc =
    match (runs, ivs) with
    | [], _ | _, [] -> List.rev acc
    | (l, u, s) :: rr, (a, b) :: ri ->
      let lo = max l a and hi = min u b in
      let acc = if lo <= hi then (lo, hi, s) :: acc else acc in
      if u < b then go rr ivs acc else go runs ri acc
  in
  go runs ivs []

let restrict runs (lo, hi) = clip runs [ (lo, hi) ]

(* --- families of index sets ---------------------------------------------- *)

(* One index set per processor, as runs: pid p in [lo, hi] of a run
   holds [Iset.shift (d * (p - lo)) set], so each triplet bound is
   affine in the pid; the pids of no run hold the empty set.  Runs are
   sorted and disjoint and hold nonempty sets. *)
type family = { nprocs : int; d : int; runs : (int * int * Iset.t) list }

let empty ~nprocs = { nprocs; d = 0; runs = [] }

let set_at f p =
  match List.find_opt (fun (lo, hi, _) -> lo <= p && p <= hi) f.runs with
  | Some (lo, _, s) -> Iset.shift (f.d * (p - lo)) s
  | None -> Iset.empty

(* [set_at], for calls in ascending pid order. *)
let cursor f =
  let rest = ref f.runs in
  fun p ->
    let rec drop = function (_, hi, _) :: r when hi < p -> drop r | r -> r in
    rest := drop !rest;
    match !rest with
    | (lo, _, s) :: _ when lo <= p -> Iset.shift (f.d * (p - lo)) s
    | _ -> Iset.empty

let to_list f = List.init f.nprocs (cursor f)

let shift c f = { f with runs = List.map (fun (lo, hi, s) -> (lo, hi, Iset.shift c s)) f.runs }

let equal a b =
  a.nprocs = b.nprocs && a.d = b.d
  && List.equal (fun (l, h, s) (l', h', s') -> l = l' && h = h' && Iset.equal s s') a.runs b.runs

let support f =
  List.fold_right
    (fun (lo, hi, _) acc ->
      match acc with (l, h) :: rest when l = hi + 1 -> (lo, h) :: rest | _ -> (lo, hi) :: acc)
    f.runs []

let pids a b = if b < a then [] else List.init (b - a + 1) (fun i -> a + i)

(* Runs of [p -> v p] over [0, nprocs - 1], given that [v p] is
   [shift 1 (v (p - 1))] wherever neither [p] nor [p - 1] is listed in
   [irregular].  [v] is called in ascending pid order, once per pid
   that starts a stretch; a run that continues its left neighbour
   merges into it, and runs of [is_empty] values are dropped. *)
let tabulate ~nprocs ~irregular ~shift ~same ~is_empty v =
  let cuts =
    List.sort_uniq compare
      (0 :: List.concat_map (fun p -> List.filter (fun p -> p > 0 && p < nprocs) [ p; p + 1 ]) irregular)
  in
  let rec go acc = function
    | [] -> List.rev acc
    | p :: rest ->
      let hi = match rest with q :: _ -> q - 1 | [] -> nprocs - 1 in
      let x = v p in
      let acc =
        match acc with
        | (lo0, hi0, x0) :: acc' when hi0 = p - 1 && same (shift (p - lo0) x0) x -> (lo0, hi, x0) :: acc'
        | _ -> if is_empty x then acc else (p, hi, x) :: acc
      in
      go acc rest
  in
  go [] cuts

(* A family by [tabulate]; equal sets are equal triplet lists. *)
let tabulate_sets ~nprocs ~d ~irregular v =
  { nprocs; d;
    runs =
      tabulate ~nprocs ~irregular ~shift:(fun k s -> Iset.shift (d * k) s)
        ~same:(fun a b -> Iset.triplets a = Iset.triplets b) ~is_empty:Iset.is_empty v }
