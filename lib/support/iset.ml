(* Finite integer sets, canonically represented as a sorted list of
   disjoint maximal triplets.  Sets in this compiler are index and
   iteration sets bounded by array extents — plus, since the compressed
   verifier domain, processor-id sets bounded by P.  Every operation
   works on the set's maximal (lo, hi) intervals and never enumerates
   the members of a contiguous run, so a mask like {0..65535} costs
   O(#intervals), not O(P).

   Strided sets arise from array extents (cyclic layouts) AND from
   masks: an owner guard's result {0,2..7} is canonically [0:2:2; 3:7].
   The canonical triplets are the greedy grouping of the sorted members
   ([Triplet.of_sorted_list]), computed straight from the intervals by
   [group]; only a strided triplet's own members are ever visited one
   by one, and each of them lies in its own interval of the set.
   [of_intervals] groups results of at most 256 members and leaves
   larger ones as step-1 intervals. *)

type t = Triplet.t list

let empty = []

let is_empty = List.for_all Triplet.is_empty

let of_triplet tr = if Triplet.is_empty tr then [] else [ tr ]

let singleton x = [ Triplet.singleton x ]

let range lo hi = of_triplet (Triplet.make ~lo ~hi ~step:1)

let mem x t = List.exists (Triplet.mem x) t

let count t = List.fold_left (fun acc tr -> acc + Triplet.count tr) 0 t

let to_list t = List.concat_map Triplet.to_list t

(* --- interval (step-1) machinery -------------------------------------- *)

(* A triplet is interval-like when its members are contiguous. *)
let tr_flat tr =
  Triplet.is_empty tr || Triplet.step tr = 1 || Triplet.count tr = 1

let flat t = List.for_all tr_flat t

(* Merge overlapping or adjacent neighbours of a sorted interval list:
   the result is separated by gaps of at least 2. *)
let rec coalesce = function
  | (a, b) :: (c, d) :: rest when c <= b + 1 -> coalesce ((a, max b d) :: rest)
  | iv :: rest -> iv :: coalesce rest
  | [] -> []

let rec sorted = function
  | (a, _) :: ((c, _) :: _ as rest) -> a <= c && sorted rest
  | _ -> true

(* Canonical sets are ordered: each nonempty triplet ends before the
   next one begins. *)
let ordered t =
  let rec go seen last = function
    | [] -> true
    | tr :: rest when Triplet.is_empty tr -> go seen last rest
    | tr :: rest ->
      ((not seen) || Triplet.lo tr > last) && go true (Triplet.hi tr) rest
  in
  go false 0 t

(* Fold [f] over the maximal intervals of an ordered set, coalescing
   adjacent triplets on the fly; [plo, phi] is the pending interval. *)
let fold_ordered f acc t =
  let flush acc pend plo phi = if pend then f acc plo phi else acc in
  let rec go acc pend plo phi = function
    | [] -> flush acc pend plo phi
    | tr :: rest when Triplet.is_empty tr -> go acc pend plo phi rest
    | tr :: rest ->
      let lo = Triplet.lo tr and hi = Triplet.hi tr in
      let joins = pend && lo = phi + 1 in
      let acc = if joins then acc else flush acc pend plo phi in
      let plo = if joins then plo else lo in
      if tr_flat tr then go acc true plo hi rest
      else
        let s = Triplet.step tr in
        let rec mid acc x = if x >= hi then acc else mid (f acc x x) (x + s) in
        go (mid (f acc plo lo) (lo + s)) true hi hi rest
  in
  go acc false 0 0 t

(* One flat triplet, the common mask, skips the scan. *)
let fold_intervals f acc t =
  match t with
  | [] -> acc
  | [ tr ] when tr_flat tr ->
    if Triplet.is_empty tr then acc else f acc (Triplet.lo tr) (Triplet.hi tr)
  | _ when ordered t -> fold_ordered f acc t
  | _ ->
    List.concat_map
      (fun tr ->
        if Triplet.is_empty tr then []
        else if tr_flat tr then [ (Triplet.lo tr, Triplet.hi tr) ]
        else List.map (fun x -> (x, x)) (Triplet.to_list tr))
      t
    |> List.sort compare |> coalesce
    |> List.fold_left (fun acc (lo, hi) -> f acc lo hi) acc

(* Sorted disjoint maximal (lo, hi) intervals of the set.  A strided
   triplet contributes one interval per member. *)
let intervals t = List.rev (fold_intervals (fun acc lo hi -> (lo, hi) :: acc) [] t)

(* The triplets [Triplet.of_sorted_list] makes of the members of the
   sorted coalesced intervals [ivs], without enumerating them.  A run of
   two or more members is its own step-1 triplet.  A singleton [a]
   pairs with the next member [c] at step [c - a], and the triplet
   extends through further singletons at that step; it may take the
   first member of a longer run, which then ends it. *)
let group ivs =
  let rec run s last d rest =
    if d > last then (last, (last + 1, d) :: rest)
    else
      match rest with
      | (e, f) :: rest' when e - last = s -> run s e f rest'
      | _ -> (last, rest)
  in
  let rec go acc = function
    | [] -> List.rev acc
    | (a, b) :: rest when a < b -> go (Triplet.range a b :: acc) rest
    | [ (a, _) ] -> List.rev (Triplet.singleton a :: acc)
    | (a, _) :: (c, d) :: rest ->
      let s = c - a in
      let hi, rest = run s c d rest in
      go (Triplet.make ~lo:a ~hi ~step:s :: acc) rest
  in
  go [] ivs

(* Rebuild a canonical set from (possibly unsorted, overlapping)
   intervals.  Results of at most 256 members are grouped so strided
   merges ({2,4,6} -> 2:6:2) print identically to the historical
   representation; larger results stay flat. *)
let of_intervals ivs : t =
  let ivs = List.filter (fun (a, b) -> a <= b) ivs in
  let merged = coalesce (if sorted ivs then ivs else List.sort compare ivs) in
  let n = List.fold_left (fun acc (a, b) -> acc + (b - a + 1)) 0 merged in
  if n > 0 && n <= 256 then group merged
  else List.map (fun (a, b) -> Triplet.range a b) merged

let of_triplets ts =
  match List.filter (fun tr -> not (Triplet.is_empty tr)) ts with
  | [] -> []
  | [ tr ] -> [ tr ]
  | ts -> group (intervals ts)

let of_list xs =
  group (coalesce (List.map (fun x -> (x, x)) (List.sort_uniq compare xs)))

let ivs_inter a b =
  let rec go a b =
    match (a, b) with
    | [], _ | _, [] -> []
    | (a1, a2) :: ra, (b1, b2) :: rb ->
      let lo = max a1 b1 and hi = min a2 b2 in
      let rest = if a2 < b2 then go ra b else go a rb in
      if lo <= hi then (lo, hi) :: rest else rest
  in
  go a b

let ivs_diff a b =
  let rec go a b =
    match (a, b) with
    | [], _ -> []
    | a, [] -> a
    | (a1, a2) :: ra, (b1, b2) :: rb ->
      if b2 < a1 then go a rb
      else if a2 < b1 then (a1, a2) :: go ra b
      else
        let left = if a1 < b1 then [ (a1, b1 - 1) ] else [] in
        if a2 > b2 then left @ go ((b2 + 1, a2) :: ra) rb else left @ go ra b
  in
  go a b

let ivs_subset a b =
  let rec go a b =
    match (a, b) with
    | [], _ -> true
    | _ :: _, [] -> false
    | (a1, a2) :: ra, (b1, b2) :: rb ->
      if b2 < a1 then go a rb
      else if b1 <= a1 && a2 <= b2 then go ra b
      else false
  in
  go a b

(* --- set algebra ------------------------------------------------------- *)

(* Flat operands rebuild through [of_intervals]; any strided operand
   groups the result at every size. *)
let union a b =
  match (a, b) with
  | [], t | t, [] -> t
  | _ ->
    if flat a && flat b then of_intervals (intervals a @ intervals b)
    else group (coalesce (List.merge compare (intervals a) (intervals b)))

let inter a b =
  match (a, b) with
  | [], _ | _, [] -> []
  | [ x ], [ y ] -> of_triplet (Triplet.inter x y)
  | _ ->
    if flat a && flat b then of_intervals (ivs_inter (intervals a) (intervals b))
    else
      (* Distribute: (U ai) n (U bj) = U (ai n bj), each exact.  Never
         materializes the operands, only the (smaller) result. *)
      of_triplets
        (List.concat_map (fun x -> List.map (Triplet.inter x) b) a)

let diff a b =
  match (a, b) with
  | [], _ -> []
  | t, [] -> t
  | _ ->
    if flat a && flat b then of_intervals (ivs_diff (intervals a) (intervals b))
    else (
      match (a, b) with
      | [ x ], [ y ] when Triplet.step y = 1 -> of_triplets (Triplet.diff x y)
      | _ -> group (ivs_diff (intervals a) (intervals b)))

(* [split a t]: the members of [a] in [t] and those not in it, each
   built by [of_intervals] from the maximal intervals.  Two intervals,
   an owner guard's usual operands, skip the interval lists. *)
let split a t =
  match (a, t) with
  | [ x ], [ y ] when tr_flat x && tr_flat y && not (Triplet.is_empty x || Triplet.is_empty y) ->
    let xl = Triplet.lo x and xh = Triplet.hi x and yl = Triplet.lo y and yh = Triplet.hi y in
    let l = max xl yl and h = min xh yh in
    if l > h then ([], [ Triplet.range xl xh ])
    else ([ Triplet.range l h ], of_intervals [ (xl, yl - 1); (yh + 1, xh) ])
  | _ ->
    let ia = intervals a and it = intervals t in
    (of_intervals (ivs_inter ia it), of_intervals (ivs_diff ia it))

let equal a b = intervals a = intervals b

let subset a b =
  if is_empty a then true
  else if is_empty b then false
  else ivs_subset (intervals a) (intervals b)

let disjoint a b = is_empty (inter a b)

(* [complement ~lo ~hi t]: the members of [lo, hi] not in [t]. *)
let complement ~lo ~hi t =
  if lo > hi then []
  else of_intervals (ivs_diff [ (lo, hi) ] (intervals t))

let shift d t = List.map (Triplet.shift d) t

let triplets t = t

let min_elt t =
  List.fold_left
    (fun acc tr -> if Triplet.is_empty tr then acc
      else match acc with None -> Some (Triplet.lo tr) | Some m -> Some (min m (Triplet.lo tr)))
    None t

let pp ppf t =
  if is_empty t then Fmt.string ppf "{}"
  else Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ",") Triplet.pp) t

let to_string t = Fmt.str "%a" pp t
