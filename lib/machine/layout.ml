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

(* Per-processor owned global indices in the distributed dimension.  For
   replicated layouts every processor owns the full extent of dimension 0
   (the choice of dimension is immaterial). *)
(* One processor's owned set, computed on demand.  [owned t ~nprocs] is
   [Array.init nprocs (owned_one t ~nprocs)] but the array form costs
   O(P) per call — the compressed verifier (P up to 65536) asks for
   single lanes and parametric descriptions instead. *)
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

let owned t ~nprocs : Iset.t array = Array.init nprocs (owned_one t ~nprocs)

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
