(* Data layouts: how one array dimension is partitioned across the P
   logical processors.  At most one dimension of an array is distributed
   (the paper's examples use 1-D distributions; see DESIGN.md). *)

open Fd_support

type dist1 =
  | Block of int         (* block size *)
  | Cyclic
  | Block_cyclic of int  (* block size; blocks dealt round-robin *)
  | Replicated

type t = {
  bounds : (int * int) list;  (* declared global bounds per dimension *)
  dist_dim : int option;      (* 0-based distributed dimension *)
  dist : dist1;
}

let replicated bounds = { bounds; dist_dim = None; dist = Replicated }

let rank t = List.length t.bounds

let extent (lo, hi) = hi - lo + 1

let dim_bounds t d = List.nth t.bounds d

(* Default block size: ceil(N / P). *)
let block_size_for ~nprocs (lo, hi) = (extent (lo, hi) + nprocs - 1) / nprocs

(* One processor's owned global indices in the distributed dimension.
   For replicated layouts every processor owns the full extent of
   dimension 0 (the choice of dimension is immaterial).  Nothing builds
   all P sets: the verifier asks for single lanes and the code generator
   for closed-form families (below). *)
let owned_one t ~nprocs p =
  match t.dist_dim with
  | None ->
    let lo, hi = List.nth t.bounds 0 in
    Iset.range lo hi
  | Some d ->
    let lo, hi = dim_bounds t d in
    (match t.dist with
    | Replicated -> Iset.range lo hi
    | Block b ->
      let plo = lo + (p * b) and phi = min hi (lo + ((p + 1) * b) - 1) in
      if phi < plo then Iset.empty
      else Iset.of_triplet (Triplet.make ~lo:plo ~hi:phi ~step:1)
    | Cyclic ->
      if lo + p > hi then Iset.empty
      else Iset.of_triplet (Triplet.make ~lo:(lo + p) ~hi ~step:nprocs)
    | Block_cyclic b ->
      let sets = ref Iset.empty in
      let blk = ref (lo + (p * b)) in
      while !blk <= hi do
        let bhi = min hi (!blk + b - 1) in
        sets := Iset.union !sets (Iset.range !blk bhi);
        blk := !blk + (nprocs * b)
      done;
      !sets)

(* Processor [p]'s owned coordinates of the distributed dimension as
   [(first, block, period)]: the offsets [first + k * period + j] from the
   lower bound, for k >= 0 and 0 <= j < block, that fall inside the
   extent.  Replicated data (or no distributed dimension) is everything. *)
let owned_pattern t ~nprocs p =
  let ext =
    extent (match t.dist_dim with None -> List.nth t.bounds 0 | Some d -> dim_bounds t d)
  in
  let ext = max 1 ext in
  match (t.dist_dim, t.dist) with
  | None, _ | _, Replicated -> (0, ext, ext)
  | Some _, Block b -> (p * b, b, max ext (p * b + b))
  | Some _, Cyclic -> (p, 1, nprocs)
  | Some _, Block_cyclic b -> (p * b, b, nprocs * b)

(* Owner of global index [g] in the distributed dimension; 0 when the
   array is replicated (every processor owns it; caller should check). *)
let owner_of t ~nprocs g =
  match (t.dist_dim, t.dist) with
  | None, _ | _, Replicated -> 0
  | Some d, Block b ->
    let lo, _ = dim_bounds t d in
    min (nprocs - 1) ((g - lo) / b)
  | Some d, Cyclic ->
    let lo, _ = dim_bounds t d in
    (g - lo) mod nprocs
  | Some d, Block_cyclic b ->
    let lo, _ = dim_bounds t d in
    (g - lo) / b mod nprocs

(* The processor whose [owned_one] set holds [g], by arithmetic and
   without building a set: [-1] when none does (outside the bounds, or
   past the last block of an under-sized Block), [nprocs] when every
   processor does (replicated). *)
let exact_owner t ~nprocs g =
  let lo, hi =
    match t.dist_dim with None -> List.nth t.bounds 0 | Some d -> dim_bounds t d
  in
  if g < lo || g > hi then -1
  else
    match (t.dist_dim, t.dist) with
    | None, _ | _, Replicated -> nprocs
    | Some _, Block b ->
      let p = (g - lo) / b in
      if p < nprocs then p else -1
    | Some _, Cyclic -> (g - lo) mod nprocs
    | Some _, Block_cyclic b -> (g - lo) / b mod nprocs

(* Processors owning at least one index of [lo, hi] in the distributed
   dimension, by owner arithmetic rather than by intersecting all P owned
   sets: a contiguous range for block layouts, at most two wrapped ranges
   for (block-)cyclic ones, everyone for replicated data.  Indices outside
   the declared bounds are owned by nobody. *)
let owners_of_interval t ~nprocs lo hi =
  let dlo, dhi =
    match t.dist_dim with None -> List.nth t.bounds 0 | Some d -> dim_bounds t d
  in
  let lo = max lo dlo and hi = min hi dhi in
  let all = Iset.range 0 (nprocs - 1) in
  (* the owners of consecutive round-robin slots k0..k1 *)
  let wrapped k0 k1 =
    if k1 - k0 + 1 >= nprocs then all
    else
      let r0 = k0 mod nprocs and r1 = k1 mod nprocs in
      if r0 <= r1 then Iset.range r0 r1
      else Iset.union (Iset.range 0 r1) (Iset.range r0 (nprocs - 1))
  in
  if lo > hi then Iset.empty
  else
    match (t.dist_dim, t.dist) with
    | None, _ | _, Replicated -> all
    | Some _, Block b -> Iset.range ((lo - dlo) / b) (min (nprocs - 1) ((hi - dlo) / b))
    | Some _, Cyclic -> wrapped (lo - dlo) (hi - dlo)
    | Some _, Block_cyclic b -> wrapped ((lo - dlo) / b) ((hi - dlo) / b)

(* Ownership in block terms: offset x of the distributed dimension lies
   in block x / b of size b (1 for cyclic), owned by processor (x / b)
   mod P.  [Some (lo, hi, b, jl)], jl the last block, when every
   processor owns at most one block: processor j holds block j. *)
let one_block t ~nprocs =
  let geo d b =
    let lo, hi = dim_bounds t d in
    let jl = (hi - lo) / b in
    if jl < nprocs then Some (lo, hi, b, jl) else None
  in
  match (t.dist_dim, t.dist) with
  | Some d, (Block b | Block_cyclic b) -> geo d b
  | Some d, Cyclic -> geo d 1
  | _ -> None

let block_size t = match t.dist with Block b | Block_cyclic b -> b | Cyclic | Replicated -> 1

(* --- families in closed form ----------------------------------------------

   Loop partitions, shift needs and send sets are families of index
   sets, one per processor ([Lanes.family]).  With one block per
   processor each is the translate by b of its neighbour's set except at
   a few pids that owner arithmetic names, and [Lanes.tabulate]
   evaluates it exactly there only: O(1) set operations at any P.
   Otherwise P is below the extent and every processor is evaluated. *)

(* The loop partition: processor p runs the iterations of [range] whose
   shifted index [i + shift] it owns.  With one block per processor the
   sets translate by b except next to the range's ends and the last
   block, or everywhere inside the range when its step does not divide
   b. *)
let partition (l : t) ~nprocs ~shift (range : Triplet.t) : Lanes.family =
  let r = Iset.of_triplet range in
  let v p = Iset.inter (Iset.shift (-shift) (owned_one l ~nprocs p)) r in
  let irregular =
    match one_block l ~nprocs with
    | None -> Lanes.pids 0 (nprocs - 1)
    | Some (lo, _, b, jl) ->
      (* the processors whose shifted block meets [x - b, x + b] *)
      let near x = (Lanes.fdiv (x - lo + shift - (2 * b) + 1) b, Lanes.fdiv (x - lo + shift + b) b) in
      let clip (a, c) = Lanes.pids (max a 0) (min c (nprocs - 1)) in
      let (l0, l1) = near (Triplet.lo range) and (h0, h1) = near (Triplet.hi range) in
      (* past the last block every set is empty *)
      let inside = if b mod Triplet.step range = 0 then [] else clip (l0, min h1 (jl + 1)) in
      clip (l0, l1) @ clip (h0, h1) @ inside @ [ jl - 1; jl ]
  in
  Lanes.tabulate_sets ~nprocs ~d:(block_size l) ~irregular v

(* Receivers whose need may not translate by b from the previous pid:
   with one block per processor, those next to a need run's ends, to the
   last block, or whose need meets the array's first block or its last
   two; otherwise every receiver. *)
let irregular_receivers (l : t) ~nprocs (need : Lanes.family) =
  let all = List.concat_map (fun (lo, hi, _) -> Lanes.pids (lo - 1) hi) need.runs in
  match one_block l ~nprocs with
  | Some (lo, hi, b, jl) when need.d = b ->
    let zones = [ (lo - b, lo - 1); (lo + ((jl - 1) * b), hi) ] in
    let meets (u, v, s) =
      match Iset.intervals s with
      | [] -> []
      | ivs ->
        let h0 = fst (List.hd ivs) and h1 = snd (List.nth ivs (List.length ivs - 1)) in
        List.concat_map
          (fun (za, zb) ->
            Lanes.pids (max u (u + Lanes.cdiv (za - h1) b)) (min v (u + Lanes.fdiv (zb - h0) b)))
          zones
    in
    List.concat_map (fun ((u, v, _) as run) -> (u - 1) :: v :: meets run) need.runs
    @ [ jl - 1; jl; jl + 1 ]
  | _ -> all

(* What processor p needs and does not own. *)
let nonlocal (l : t) ~nprocs (need : Lanes.family) : Lanes.family =
  let need_at = Lanes.cursor need in
  Lanes.tabulate_sets ~nprocs ~d:need.d ~irregular:(irregular_receivers l ~nprocs need) (fun p ->
      Iset.diff (need_at p) (owned_one l ~nprocs p))

(* The point-to-point transfers that satisfy [need]: for each offset
   delta = q - p between a sender q and a receiver p, ascending, the
   family of what each sender q sends to q - delta.  Only the owners of
   a receiver's nonlocal indices are asked ({!owners_of_interval}). *)
let transfers (l : t) ~nprocs (need : Lanes.family) : (int * Lanes.family) list =
  let need_at = Lanes.cursor need in
  let receive p =
    let nonlocal = Iset.diff (need_at p) (owned_one l ~nprocs p) in
    let owners =
      Iset.of_intervals
        (Iset.fold_intervals
           (fun acc lo hi -> Iset.intervals (owners_of_interval l ~nprocs lo hi) @ acc)
           [] nonlocal)
    in
    List.rev
      (Iset.fold_intervals
         (fun acc qlo qhi ->
           List.fold_left
             (fun acc q ->
               let s = Iset.inter nonlocal (owned_one l ~nprocs q) in
               if q <> p && not (Iset.is_empty s) then (q - p, s) :: acc else acc)
             acc (Lanes.pids qlo qhi))
         [] owners)
  in
  let d = need.d in
  let runs =
    Lanes.tabulate ~nprocs ~irregular:(irregular_receivers l ~nprocs need)
      ~shift:(fun k -> List.map (fun (dl, s) -> (dl, Iset.shift (d * k) s)))
      ~same:(List.equal (fun (a, s) (b, t) -> a = b && Iset.triplets s = Iset.triplets t))
      ~is_empty:(( = ) []) receive
  in
  let deltas = List.sort_uniq compare (List.concat_map (fun (_, _, xs) -> List.map fst xs) runs) in
  List.map
    (fun delta ->
      ( delta,
        { Lanes.nprocs; d;
          runs =
            List.filter_map
              (fun (lo, hi, xs) ->
                Option.map (fun s -> (lo + delta, hi + delta, s)) (List.assoc_opt delta xs))
              runs } ))
    deltas

let equal a b = a.bounds = b.bounds && a.dist_dim = b.dist_dim && a.dist = b.dist

let dist_name = function
  | Block b -> Fmt.str "block(%d)" b
  | Cyclic -> "cyclic"
  | Block_cyclic b -> Fmt.str "block_cyclic(%d)" b
  | Replicated -> "replicated"

let pp ppf t =
  match t.dist_dim with
  | None -> Fmt.string ppf "replicated"
  | Some d -> Fmt.pf ppf "dim %d %s" (d + 1) (dist_name t.dist)
