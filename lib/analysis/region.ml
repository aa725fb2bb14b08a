(* Regular section descriptors.

   A [box] is one RSD in the paper's sense: a triplet per array dimension.
   A [t] (region) is a finite union of boxes of equal rank.  Intersection
   and difference are exact (difference uses the standard slab
   decomposition); union is represented structurally, with overlapping
   boxes tolerated (operations account for multiplicity-free semantics
   through [normalize] where it matters). *)

open Fd_support

type box = Triplet.t array

type t = { rank : int; boxes : box list }

let box_is_empty b = Array.exists Triplet.is_empty b

let empty rank = { rank; boxes = [] }

let of_box b =
  if box_is_empty b then { rank = Array.length b; boxes = [] }
  else { rank = Array.length b; boxes = [ b ] }

let of_triplets ts = of_box (Array.of_list ts)

let of_boxes rank boxes =
  { rank; boxes = List.filter (fun b -> not (box_is_empty b)) boxes }

let is_empty r = r.boxes = []

let check_rank a b =
  if a.rank <> b.rank then Diag.internal ~pass:"analysis" "region rank mismatch"

let box_inter (a : box) (b : box) : box =
  Array.init (Array.length a) (fun i -> Triplet.inter a.(i) b.(i))

let box_count (b : box) =
  Array.fold_left (fun acc t -> acc * Triplet.count t) 1 b

let box_mem idx (b : box) =
  Array.length idx = Array.length b
  && Array.for_all2 (fun x t -> Triplet.mem x t) idx b

let mem idx r = List.exists (box_mem idx) r.boxes

(* Exact box difference by slab decomposition.  Relies on Triplet.diff
   being exact (sound over-approximation otherwise, which is safe for the
   "communicate everything we might not own" direction). *)
let box_diff (a : box) (b : box) : box list =
  let core = box_inter a b in
  if box_is_empty core then [ a ]
  else begin
    let result = ref [] in
    let current = Array.copy a in
    Array.iteri
      (fun d _ ->
        let outside = Triplet.diff current.(d) b.(d) in
        List.iter
          (fun t ->
            let slab = Array.copy current in
            slab.(d) <- t;
            if not (box_is_empty slab) then result := slab :: !result)
          outside;
        current.(d) <- Triplet.inter current.(d) b.(d))
      a;
    List.rev !result
  end

let inter a b =
  check_rank a b;
  of_boxes a.rank
    (List.concat_map (fun ba -> List.map (box_inter ba) b.boxes) a.boxes)

let diff a b =
  check_rank a b;
  let remove_box boxes bb = List.concat_map (fun ba -> box_diff ba bb) boxes in
  of_boxes a.rank (List.fold_left remove_box a.boxes b.boxes)

let union a b =
  check_rank a b;
  (* keep disjointness so that [count] is exact: add b's boxes minus a *)
  let extra = (diff b a).boxes in
  { rank = a.rank; boxes = a.boxes @ extra }

let count r = Listx.sum (List.map box_count r.boxes)

let equal a b = is_empty (diff a b) && is_empty (diff b a)

let subset a b = is_empty (diff a b)
