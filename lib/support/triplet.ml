(* Integer triplets [lo:hi:step] in Fortran 90 notation, the scalar kernel
   under regular section descriptors.  Normal form: step >= 1 and hi is the
   last member (hi = lo + k*step for some k >= 0), or the distinguished
   [empty] value. *)

type t = { lo : int; hi : int; step : int }

let empty = { lo = 1; hi = 0; step = 1 }

let is_empty t = t.hi < t.lo

let normalize ~lo ~hi ~step =
  if step < 1 then invalid_arg "Triplet.make: step must be >= 1";
  if hi < lo then empty
  else { lo; hi = lo + ((hi - lo) / step * step); step }

let make ~lo ~hi ~step = normalize ~lo ~hi ~step

let range lo hi = make ~lo ~hi ~step:1

let singleton x = { lo = x; hi = x; step = 1 }

let count t = if is_empty t then 0 else ((t.hi - t.lo) / t.step) + 1

let mem x t =
  (not (is_empty t)) && x >= t.lo && x <= t.hi && (x - t.lo) mod t.step = 0

let lo t = t.lo
let hi t = t.hi
let step t = t.step

let shift d t = if is_empty t then empty else { t with lo = t.lo + d; hi = t.hi + d }

let to_list t =
  if is_empty t then []
  else
    let rec loop acc x = if x < t.lo then acc else loop (x :: acc) (x - t.step) in
    loop [] t.hi

let rec egcd a b = if b = 0 then (a, 1, 0) else
  let g, x, y = egcd b (a mod b) in
  (g, y, x - (a / b) * y)

(* Intersection solves the congruences x = lo1 (mod s1), x = lo2 (mod s2)
   by CRT, clipped to the common extent. *)
let inter a b =
  if is_empty a || is_empty b then empty
  else
    let lo = max a.lo b.lo and hi = min a.hi b.hi in
    if hi < lo then empty
    else
      let g, p, _q = egcd a.step b.step in
      let diff = b.lo - a.lo in
      if diff mod g <> 0 then empty
      else
        let lcm = a.step / g * b.step in
        (* x0 = a.lo + a.step * p * (diff / g) satisfies both congruences. *)
        let x0 = a.lo + (a.step * (p * (diff / g) mod (lcm / a.step))) in
        let x0 = ((x0 - a.lo) mod lcm + lcm) mod lcm + a.lo in
        (* first member >= lo *)
        let first = if x0 >= lo then x0 else x0 + ((lo - x0 + lcm - 1) / lcm * lcm) in
        if first > hi then empty else normalize ~lo:first ~hi ~step:lcm

let disjoint a b = is_empty (inter a b)

let subset a b =
  (* a is a subset of b *)
  if is_empty a then true
  else if is_empty b then false
  else mem a.lo b && mem a.hi b && (count a <= 1 || a.step mod b.step = 0)

(* Subtraction a \ b.  Exact when b is contiguous (step 1) or when the
   result can be expressed with a few triplets; falls back to element
   enumeration for small sets, and to the (sound, over-approximate for the
   "nonlocal = accessed minus local" use) identity otherwise. *)
let max_enumerate = 4096

let of_sorted_list xs =
  (* Group a sorted list of distinct ints into maximal triplets. *)
  let rec take_run lo prev step = function
    | x :: rest when x - prev = step -> take_run lo x step rest
    | rest -> ({ lo; hi = prev; step }, rest)
  in
  let rec loop acc = function
    | [] -> List.rev acc
    | [ x ] -> List.rev (singleton x :: acc)
    | x :: y :: rest ->
      let t, rest' = take_run x y (y - x) rest in
      loop (t :: acc) rest'
  in
  loop [] xs

let ceil_div a b = if a >= 0 then (a + b - 1) / b else -((-a) / b)

let diff a b =
  if is_empty a then []
  else if disjoint a b then [ a ]
  else if b.step = 1 then begin
    (* b contiguous: keep the parts of a strictly below/above b. *)
    let below =
      if a.lo < b.lo then
        let hi' = a.lo + ((b.lo - 1 - a.lo) / a.step * a.step) in
        [ normalize ~lo:a.lo ~hi:hi' ~step:a.step ]
      else []
    and above =
      if a.hi > b.hi then
        let k = max 0 (ceil_div (b.hi + 1 - a.lo) a.step) in
        [ normalize ~lo:(a.lo + (k * a.step)) ~hi:a.hi ~step:a.step ]
      else []
    in
    List.filter (fun t -> not (is_empty t)) (below @ above)
  end
  else if count a <= max_enumerate then
    of_sorted_list (List.filter (fun x -> not (mem x b)) (to_list a))
  else [ a ]

let pp ppf t =
  if is_empty t then Fmt.string ppf "[]"
  else if t.step = 1 then Fmt.pf ppf "[%d:%d]" t.lo t.hi
  else Fmt.pf ppf "[%d:%d:%d]" t.lo t.hi t.step

let to_string t = Fmt.str "%a" pp t
