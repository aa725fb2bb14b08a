(* The printer of per-processor families: node-program expressions over
   my$p.

   A loop partition, the data one processor needs from its neighbours,
   and what each processor sends are families of index sets, one per
   processor, held as runs over pid intervals whose sets translate by
   the layout's block size per pid ([Lanes.family], built from owner
   arithmetic by [Layout.partition] and its kin; DESIGN.md section 6).
   The printer reads a family's triplet bounds as piecewise-affine
   functions of the pid ([Lanes]) and prints what the dense search of
   earlier versions found over P-length arrays: a*my$p + b, optionally
   clipped by min/max, then a compile-time lookup table
   tab$(my$p, c0, c1, ...) where no affine form exists, and guards from
   the pids that take part.  Only a table costs O(P). *)

open Fd_support
open Fd_frontend

let myp = Ast.Var "my$p"

let int_e n = Ast.Int_const n

(* --- the printer --------------------------------------------------------- *)

type lanes = int Lanes.t

(* Every pid's value, for a cover of [0, nprocs - 1]. *)
let values (runs : lanes) =
  List.concat_map (fun (l, u, s) -> List.init (u - l + 1) (fun i -> Lanes.seg_at ~const:Fun.id s (l + i))) runs

(* a*my$p + b as an expression, simplified. *)
let linear_expr a b =
  if a = 0 then int_e b
  else
    let t = if a = 1 then myp else Ast.Bin (Ast.Mul, int_e a, myp) in
    if b = 0 then t
    else if b > 0 then Ast.Bin (Ast.Add, t, int_e b)
    else Ast.Bin (Ast.Sub, t, int_e (-b))

let tab_expr values = Ast.Funcall ("tab$", myp :: List.map int_e values)

(* Does the run [s] equal a*p + b on every pid of [l, u]? *)
let agrees l u (a, b) s =
  l > u
  || (if l = u then Lanes.seg_at ~const:Fun.id s l = (a * l) + b
      else match s with Lanes.Sconst c -> a = 0 && b = c | Lanes.Saff x -> x.a = a && x.b = b)

(* The line a*p + b through every pid of [pieces]: the one through
   their first two points, which must have an integer slope; (0, v) for
   one point and (0, 0) for none. *)
let line (pieces : lanes) =
  match pieces with
  | [] -> Some (0, 0)
  | (l, u, s) :: rest -> (
    let v0 = Lanes.seg_at ~const:Fun.id s l in
    let second =
      if u > l then Some (l + 1, Lanes.seg_at ~const:Fun.id s (l + 1))
      else match rest with (l2, _, s2) :: _ -> Some (l2, Lanes.seg_at ~const:Fun.id s2 l2) | [] -> None
    in
    match second with
    | None -> Some (0, v0)
    | Some (p1, v1) ->
      if (v1 - v0) mod (p1 - l) <> 0 then None
      else
        let a = (v1 - v0) / (p1 - l) in
        let b = v0 - (a * l) in
        if List.for_all (fun (l, u, s) -> agrees l u (a, b) s) pieces then Some (a, b) else None)

(* Does min(a*p + b, c) (or max) equal every piece?  The line is the
   value on one side of the pid t where it crosses c, c on the other. *)
let clipped name (a, b) c (pieces : lanes) =
  let prefix = (name = "min") = (a > 0) in
  let t = if prefix then Lanes.fdiv (c - b) a else Lanes.cdiv (c - b) a in
  List.for_all
    (fun (l, u, s) ->
      if prefix then agrees l (min u t) (a, b) s && agrees (max l (t + 1)) u (0, c) s
      else agrees (max l t) u (a, b) s && agrees l (min u (t - 1)) (0, c) s)
    pieces

(* The expression computing each pid's value over the pids in [mask]
   (sorted disjoint intervals; all pids when absent): the line through
   them, then a line clipped by min or max, then a table of every pid's
   value. *)
let expr_of_lanes ?mask (runs : lanes) : Ast.expr =
  let pieces = match mask with Some ivs -> Lanes.clip runs ivs | None -> runs in
  match line pieces with
  | Some (a, b) -> linear_expr a b
  | None ->
    let ends = List.concat_map (fun (l, u, s) -> [ Lanes.seg_at ~const:Fun.id s l; Lanes.seg_at ~const:Fun.id s u ]) pieces in
    let try_clip pick name =
      match ends with
      | [] -> None
      | v0 :: rest -> (
        let c = List.fold_left pick v0 rest in
        let inner =
          List.concat_map
            (fun ((l, u, s) as piece) ->
              match s with
              | Lanes.Sconst x -> if x = c then [] else [ piece ]
              | Lanes.Saff { a; b } ->
                if (c - b) mod a = 0 && l <= (c - b) / a && (c - b) / a <= u then
                  let p = (c - b) / a in
                  List.filter (fun (l, u, _) -> l <= u) [ (l, p - 1, s); (p + 1, u, s) ]
                else [ piece ])
            pieces
        in
        match line inner with
        | Some (a, b) when a <> 0 && clipped name (a, b) c pieces ->
          Some (Ast.Funcall (name, [ linear_expr a b; int_e c ]))
        | _ -> None)
    in
    match try_clip max "min" with
    | Some e -> e
    | None -> (
      match try_clip min "max" with
      | Some e -> e
      | None -> tab_expr (values runs))

(* [Some (k, first, last)] when [mask] is two or more single pids at
   the constant stride k >= 2, from [first] to [last]. *)
let periodic (mask : (int * int) list) =
  match mask with
  | (first, u0) :: (l1, u1) :: rest when first = u0 && l1 = u1 && l1 - first >= 2 ->
    let k = l1 - first in
    let rec last prev = function
      | [] -> Some (k, first, prev)
      | (l, u) :: rest -> if l = u && l - prev = k then last l rest else None
    in
    last l1 rest
  | _ -> None

(* Guard true exactly on the pids of [mask] (sorted disjoint
   intervals); [None] when that is every pid.  Pids at a constant stride
   k print as mod(my$p, k) == r with the bounds the progression needs
   inside [0, nprocs - 1]; any other mask as a tab$ table of every pid's
   membership. *)
let guard_of_mask ~nprocs (mask : (int * int) list) : Ast.expr option =
  match mask with
  | [ (0, hi) ] when hi = nprocs - 1 -> None
  | [] -> Some (Ast.Logical_const false)
  | [ (lo, hi) ] ->
    if lo = 0 then Some (Ast.Bin (Ast.Le, myp, int_e hi))
    else if hi = nprocs - 1 then Some (Ast.Bin (Ast.Ge, myp, int_e lo))
    else if lo = hi then Some (Ast.Bin (Ast.Eq, myp, int_e lo))
    else Some (Ast.Bin (Ast.And, Ast.Bin (Ast.Ge, myp, int_e lo), Ast.Bin (Ast.Le, myp, int_e hi)))
  | _ -> (
    match periodic mask with
    | Some (k, first, last) ->
      let bound keep op v g = if keep then Ast.Bin (Ast.And, g, Ast.Bin (op, myp, int_e v)) else g in
      Some
        (Ast.Bin (Ast.Eq, Ast.Funcall ("mod", [ myp; int_e k ]), int_e (first mod k))
        |> bound (first >= k) Ast.Ge first
        |> bound (last + k <= nprocs - 1) Ast.Le last)
    | None ->
      let rec bits next = function
        | [] -> [ (next, nprocs - 1, Lanes.Sconst 0) ]
        | (lo, hi) :: rest -> (next, lo - 1, Lanes.Sconst 0) :: (lo, hi, Lanes.Sconst 1) :: bits (hi + 1) rest
      in
      let bits = List.filter (fun (l, u, _) -> l <= u) (bits 0 mask) in
      Some (Ast.Bin (Ast.Eq, tab_expr (values bits), int_e 1)))

type fitted_triplet = {
  f_lo : Ast.expr;
  f_hi : Ast.expr;
  f_step : Ast.expr;
  f_guard : Ast.expr option;  (* None = all processors participate *)
}

(* Some processor holds a set, and each nonempty set is one triplet. *)
let fits (f : Lanes.family) =
  f.runs <> [] && List.for_all (fun (_, _, s) -> List.length (Iset.triplets s) = 1) f.runs

(* The family's triplets as (lo, hi, step) expressions plus a guard
   restricting to the processors with nonempty sets; [None] unless
   [fits].  A processor outside the guard reads lo = 1, hi = 0, step = 1
   in a table. *)
let fit (f : Lanes.family) : fitted_triplet option =
  if not (fits f) then None
  else begin
    let lane junk part =
      let gap lo hi = if lo <= hi then [ (lo, hi, Lanes.Sconst junk) ] else [] in
      let rec go next = function
        | [] -> gap next (f.nprocs - 1)
        | (lo, hi, s) :: rest ->
          let t = List.hd (Iset.triplets s) in
          let seg =
            match part with
            | `Step -> Lanes.Sconst (Triplet.step t)
            | `Lo -> Lanes.saff ~const:Fun.id f.d (Triplet.lo t - (f.d * lo))
            | `Hi -> Lanes.saff ~const:Fun.id f.d (Triplet.hi t - (f.d * lo))
          in
          gap next (lo - 1) @ ((lo, hi, seg) :: go (hi + 1) rest)
      in
      Lanes.norm ~const:Fun.id ~merge:( = ) (go 0 f.runs)
    in
    let mask = Lanes.support f in
    let expr junk part = expr_of_lanes ~mask (lane junk part) in
    Some
      { f_lo = expr 1 `Lo; f_hi = expr 0 `Hi; f_step = expr 1 `Step;
        f_guard = guard_of_mask ~nprocs:f.nprocs mask }
  end
