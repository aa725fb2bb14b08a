(* The verifier's value domain: one abstract value summarizing what a
   scalar holds on ALL processors of the ensemble at once.

   Node programs are compiled for a concrete P (Node.n_nprocs bakes it
   in, and tab$ tables are P-specific), so instead of a symbolic my$p
   the domain tracks the full lane vector — but COMPRESSED.  The dense
   per-P array of the original implementation made every operation O(P)
   and put `fdc check -p 65536` hours away; in real node programs lanes
   diverge in only three shapes, which the representation captures
   directly:

   - [Uni v]: every processor holds [v] (possibly the unknown [Punk] —
     "same on all processors, value unknown").  This distinction is what
     lets the analysis prove collective congruence through
     data-dependent but processor-uniform branches.
   - [Runs segs]: processors disagree; [segs] is a sorted contiguous
     run-length cover of pid space [0, n-1], each run carrying either a
     per-run constant ([Sconst]) or an affine function of the pid
     ([Saff], value a*pid + b) — the shape of my$p itself, of owner
     guards (my$p <= 2), and of neighbor indices (my$p + 1).

   True divergence degrades to one run per pid — the dense
   representation as the worst case rather than the only case.

   Every operation has a single source of truth: the pointwise [pv2] /
   [pv1] semantics, which are {!Value}'s operations lifted to lanes (an
   unknown operand or a run-time error gives [Punk]); only the Kleene
   logic and [Join] are Absdom's own.  The segment-level fast paths
   (exact affine algebra, threshold splits for comparisons,
   truncated-division run enumeration) are each equivalent to pointwise
   application by concretization — property-tested in test_absdom.ml,
   which also checks the expression compiler built on them against the
   simulator's evaluator.

   Array element reads abstract to [Uni Punk]: distributed data is
   assumed processor-consistent (the "uniform data" assumption, see
   DESIGN.md 6c), which is what makes branches like dgefa's pivot test
   uniform rather than spuriously divergent. *)

open Fd_support
open Fd_frontend

type pv = Pint of int | Preal of float | Pbool of bool | Punk

(* One run of lanes, the shared pid-piecewise segment.  Invariant:
   [Saff] never has [a = 0] and never spans a single pid (both collapse
   to [Sconst]). *)
type 'c lane_seg = 'c Lanes.seg = Sconst of 'c | Saff of { a : int; b : int }
type seg = pv lane_seg

(* Invariants (established by [norm], assumed everywhere):
   - [Runs segs]: segs are sorted, contiguous, and cover [0, n-1];
   - adjacent runs are not mergeable (equal constants, two unknowns, or
     identical affine coefficients);
   - a full-range [Sconst v] with [v <> Punk] is represented as [Uni v]
     — so [Runs] always means "not provably uniform".  A full-range
     [Sconst Punk] run stays [Runs]: it is the divergent-unknown ("each
     processor holds its own unknown"), distinct from [Uni Punk]. *)
type t = Uni of pv | Runs of pv Lanes.t

let unknown = Uni Punk

(* Provable equality: two unknowns are NOT equal — divergent unknowns
   must stay divergent, which is exactly the distinction the congruence
   analysis lives on.  [Uni Punk] can only be produced by operations
   whose inputs were all uniform. *)
let pv_equal a b =
  match (a, b) with
  | Pint x, Pint y -> x = y
  | Preal x, Preal y -> Int64.bits_of_float x = Int64.bits_of_float y
  | Pbool x, Pbool y -> x = y
  | _ -> false

(* Representational identity, reals bit for bit: two unknowns are the
   same unknown here. *)
let pv_identical a b = (a = Punk && b = Punk) || pv_equal a b

let identical a b =
  a == b
  ||
  match (a, b) with
  | Uni x, Uni y -> pv_identical x y
  | Runs x, Runs y ->
    List.equal
      (fun (l, u, s) (l', u', s') ->
        l = l' && u = u'
        &&
        match (s, s') with
        | Sconst x, Sconst y -> pv_identical x y
        | Saff _, Saff _ -> s = s'
        | _ -> false)
      x y
  | _ -> false

(* --- pointwise semantics: Value's, lifted -------------------------------- *)

let to_value = function
  | Pint i -> Value.Vint i
  | Preal f -> Value.Vreal f
  | Pbool b -> Value.Vbool b
  | Punk -> raise Exit

let of_value = function
  | Value.Vint i -> Pint i
  | Value.Vreal f -> Preal f
  | Value.Vbool b -> Pbool b

(* A [Value] operation on known lanes; an unknown operand, or an error
   the program would stop on, makes the lane unknown. *)
let lift f vs =
  match f (List.map to_value vs) with
  | v -> of_value v
  | exception (Exit | Diag.Compile_error _) -> Punk

let lift1 f a =
  match a with
  | Punk -> Punk
  | _ -> ( match f (to_value a) with v -> of_value v | exception Diag.Compile_error _ -> Punk)

let lift2 f a b =
  match (a, b) with
  | Punk, _ | _, Punk -> Punk
  | _ -> (
    match f (to_value a) (to_value b) with
    | v -> of_value v
    | exception Diag.Compile_error _ -> Punk)

(* Kleene three-valued logic: unknown only where the outcome genuinely
   depends on the unknown operand. *)
let and_ a b =
  match (a, b) with
  | Pbool false, _ | _, Pbool false -> Pbool false
  | Pbool true, Pbool true -> Pbool true
  | _ -> Punk

let or_ a b =
  match (a, b) with
  | Pbool true, _ | _, Pbool true -> Pbool true
  | Pbool false, Pbool false -> Pbool false
  | _ -> Punk

let not_ = function Pbool b -> Pbool (not b) | _ -> Punk

(* Join of two control-flow branches: keep only what both agree on. *)
let pv_join a b = if pv_equal a b then a else Punk

type binop =
  | Add | Sub | Mul | Div | Pow | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or | Max | Min | Join

type unop = Neg | Not | Abs | ToInt | ToReal

(* The pointwise meaning of each operator — the single source of truth
   the segment fast paths must agree with (by concretization). *)
let rel op a b = lift2 (fun x y -> Value.of_bool (Value.relation op x y)) a b

let ptrue = Pbool true
let pfalse = Pbool false
let pbool b = if b then ptrue else pfalse

(* Two integer lanes skip the [Value] round trip and its handler: each
   case is [Value]'s integer case, an error the program would stop on
   giving [Punk] as [lift2] does. *)
let int2 op a b x y =
  match op with
  | Add -> Pint (x + y)
  | Sub -> Pint (x - y)
  | Mul -> Pint (x * y)
  | Div -> if y = 0 then Punk else Pint (x / y)
  | Pow -> if y < 0 && x = 0 then Punk else Pint (Value.ipow x y)
  | Mod -> if y = 0 then Punk else Pint (x mod y)
  | Eq -> pbool (x = y)
  | Ne -> pbool (x <> y)
  | Lt -> pbool (x < y)
  | Le -> pbool (x <= y)
  | Gt -> pbool (x > y)
  | Ge -> pbool (x >= y)
  | And | Or -> Punk
  | Max -> if y > x then b else a
  | Min -> if y < x then b else a
  | Join -> if x = y then a else Punk

let pv2 op a b =
  match (a, b) with
  | Pint x, Pint y -> int2 op a b x y
  | _ -> (
    match op with
    | Add -> lift2 Value.add a b
    | Sub -> lift2 Value.sub a b
    | Mul -> lift2 Value.mul a b
    | Div -> lift2 Value.div a b
    | Pow -> lift2 Value.pow a b
    | Mod -> lift2 Value.modulo a b
    | Eq -> rel Ast.Eq a b
    | Ne -> rel Ast.Ne a b
    | Lt -> rel Ast.Lt a b
    | Le -> rel Ast.Le a b
    | Gt -> rel Ast.Gt a b
    | Ge -> rel Ast.Ge a b
    | And -> and_ a b
    | Or -> or_ a b
    | Max -> lift2 Value.max a b
    | Min -> lift2 Value.min a b
    | Join -> pv_join a b)

let pv1 op a =
  match op with
  | Neg -> lift1 Value.neg a
  | Not -> not_ a
  | Abs -> lift1 Value.abs a
  | ToInt -> lift1 Value.integer a
  | ToReal -> lift1 Value.real a

(* --- representation plumbing ------------------------------------------ *)

let pint i = Pint i

(* Smart constructor: zero slope is a constant; used everywhere so the
   [Saff] a<>0 invariant holds by construction. *)
let saff a b = Lanes.saff ~const:pint a b

let seg_at s p = Lanes.seg_at ~const:pint s p

(* Int-affine view: a constant int is slope 0. *)
let lin_of = function
  | Sconst (Pint c) -> Some (0, c)
  | Saff { a; b } -> Some (a, b)
  | Sconst _ -> None

let segs_of ~n = function
  | Uni v -> [ (0, n - 1, Sconst v) ]
  | Runs rs -> rs

(* Canonicalize a sorted contiguous cover of [0, n-1] ([Lanes.norm]:
   equal constants and two unknowns merge), and collapse a uniform known
   cover to [Uni]. *)
let norm ~n segs =
  match Lanes.norm ~const:pint ~merge:(fun x y -> pv_equal x y || (x = Punk && y = Punk)) segs with
  | [ (0, u, Sconst v) ] when u = n - 1 && v <> Punk -> Uni v
  | segs -> Runs segs

(* Public constructor from a sorted contiguous cover of [0, n-1]. *)
let of_segs ~n segs = norm ~n segs

let of_dense (vs : pv array) : t =
  let n = Array.length vs in
  norm ~n (List.init n (fun p -> (p, p, Sconst vs.(p))))

let at v p = match v with
  | Uni x -> x
  | Runs segs -> Lanes.at ~const:pint segs p

let to_dense ~n v = Array.init n (at v)

let uniform_int = function Uni (Pint i) -> Some i | _ -> None

let is_uniform = function Uni _ -> true | Runs _ -> false

let myproc ~n = if n = 1 then Uni (Pint 0) else Runs [ (0, n - 1, saff 1 0) ]

(* "Each processor holds its own unknown" — never collapses to Uni. *)
let divergent_unknown ~n = Runs [ (0, n - 1, Sconst Punk) ]

let has_punk ~n v =
  match segs_of ~n v with
  | segs -> List.exists (fun (_, _, s) -> s = Sconst Punk) segs

(* Pids whose lane is a known integer. *)
let int_pids ~n v =
  Iset.of_intervals
    (List.filter_map
       (fun (l, u, s) ->
         match s with
         | Saff _ | Sconst (Pint _) -> Some (l, u)
         | Sconst _ -> None)
       (segs_of ~n v))

(* --- alignment --------------------------------------------------------- *)

(* Common refinement of two covers: chunks on which both operands are a
   single segment. *)
let align ~n a b = Lanes.align (segs_of ~n a) (segs_of ~n b)

(* Common refinement of any number of covers, as (lo, hi, one segment
   per operand in order).  Used by the emitter to chunk message
   endpoints and section bounds together. *)
let align_many ~n (vs : t list) = Lanes.align_many (List.map (segs_of ~n) vs)

(* Segments of [v] clipped to [lo, hi]. *)
let restrict ~n v (lo, hi) = Lanes.restrict (segs_of ~n v) (lo, hi)

(* tab$-style lookup: lane p of the result is lane p of [vs.(i)] when
   [sel]'s lane p is [Pint i] in range, else Punk.  Mirrors the dense
   per-lane table walk; an all-miss result stays divergent-unknown. *)
let select ~n sel (vs : t array) : t =
  let punk l u = (l, u, Sconst Punk) in
  norm ~n
    (List.concat_map
       (fun (l, u, s) ->
         match s with
         | Sconst (Pint i) ->
           if i >= 0 && i < Array.length vs then restrict ~n vs.(i) (l, u)
           else [ punk l u ]
         | Sconst _ -> [ punk l u ]
         | Saff _ ->
           List.init (u - l + 1) (fun k ->
               let p = l + k in
               match seg_at s p with
               | Pint i when i >= 0 && i < Array.length vs ->
                 (p, p, Sconst (at vs.(i) p))
               | _ -> (p, p, Sconst Punk)))
       (segs_of ~n sel))

(* --- affine machinery -------------------------------------------------- *)

let fdiv = Lanes.fdiv

(* The pids where a*p + b REL 0, as a half-line; requires a <> 0. *)
let rec rel_halfline a b rel =
  if a > 0 then
    match rel with
    | `Lt -> `Le (fdiv (-b - 1) a)
    | `Le -> `Le (fdiv (-b) a)
    | `Gt -> `Ge (fdiv (-b) a + 1)
    | `Ge -> `Ge (fdiv (-b - 1) a + 1)
  else
    let mirror = function `Lt -> `Gt | `Le -> `Ge | `Gt -> `Lt | `Ge -> `Le in
    rel_halfline (-a) (-b) (mirror rel)

(* Split [l, u] into a true part and a false part along a half-line,
   emitting segments holding the given values. *)
let halfline_split l u hl ~t ~f =
  let tl, tu = match hl with `Le c -> (l, min u c) | `Ge c -> (max l c, u) in
  if tu < tl then [ (l, u, f) ]
  else
    List.filter (fun (a, b, _) -> a <= b)
      [ (l, tl - 1, f); (tl, tu, t); (tu + 1, u, f) ]

(* Truncated division of an affine run by a constant: enumerate the
   (contiguous, by monotonicity of x |-> x/c) level runs of the
   quotient, then re-coalesce pid-by-pid quotient staircases back into
   affine runs — (32p + 32)/32 must come back as p + 1, not 65536
   singletons. *)
let div_runs l u (a, b) c =
  let q p = ((a * p) + b) / c in
  let runs = ref [] in
  let p = ref l in
  while !p <= u do
    let q0 = q !p in
    let lo = ref !p and hi = ref u in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if q mid = q0 then lo := mid else hi := mid - 1
    done;
    runs := (!p, !lo, q0) :: !runs;
    p := !lo + 1
  done;
  List.rev !runs

(* Coalesce consecutive singleton constant-int runs in arithmetic
   progression into one affine segment. *)
let coalesce_affine (runs : (int * int * int) list) : (int * int * seg) list =
  let rec go = function
    | (l1, u1, q1) :: ((l2, u2, q2) :: _ as rest)
      when l1 = u1 && l2 = u2 && q2 <> q1 ->
      let d = q2 - q1 in
      let rec extend last lastq = function
        | (l, u, q) :: rest when l = u && q - lastq = d -> extend l q rest
        | rest -> (last, lastq, rest)
      in
      let last, _, rest = extend l1 q1 rest in
      if last > l1 then (l1, last, saff d (q1 - (d * l1))) :: go rest
      else (l1, u1, Sconst (Pint q1)) :: go rest
    | (l, u, q) :: rest -> (l, u, Sconst (Pint q)) :: go rest
    | [] -> []
  in
  go runs

let expand2 op l u s1 s2 =
  List.init (u - l + 1) (fun i ->
      let p = l + i in
      (p, p, Sconst (pv2 op (seg_at s1 p) (seg_at s2 p))))

(* Truth segments for (a*p + b) = 0 over [l, u]; requires a <> 0. *)
let eq_point_split l u a b ~t ~f =
  let star = if (-b) mod a = 0 then Some (-b / a) else None in
  match star with
  | Some p when l <= p && p <= u ->
    List.filter (fun (x, y, _) -> x <= y) [ (l, p - 1, f); (p, p, t); (p + 1, u, f) ]
  | _ -> [ (l, u, f) ]

(* a*p + b stays within max_int/2 for every pid p <= u, so the
   difference of two such forms cannot wrap either. *)
let bounded u (a, b) =
  let m = max_int / 4 in
  -m <= b && b <= m && -m <= a && a <= m && abs a <= m / max 1 u

(* Both operands int-affine on the chunk: exact class-preserving rules.
   Returns None to fall back to pointwise expansion.  Sums and scalings
   are exact in wrapping arithmetic; divisions, comparisons and the rest
   split runs by solving a*p + b against 0, which needs forms that do
   not wrap. *)
let lin2 op l u (a1, b1) (a2, b2) =
  let const v = Some [ (l, u, Sconst v) ] in
  match op with
  | Add -> Some [ (l, u, saff (a1 + a2) (b1 + b2)) ]
  | Sub -> Some [ (l, u, saff (a1 - a2) (b1 - b2)) ]
  | Mul ->
    if a1 = 0 then Some [ (l, u, saff (b1 * a2) (b1 * b2)) ]
    else if a2 = 0 then Some [ (l, u, saff (a1 * b2) (b1 * b2)) ]
    else None
  | _ when not (bounded u (a1, b1) && bounded u (a2, b2)) -> None
  | Div ->
    if a2 <> 0 then None
    else if b2 = 0 then const Punk
    else if a1 = 0 then const (Pint (b1 / b2))
    else Some (coalesce_affine (div_runs l u (a1, b1) b2))
  | Mod ->
    if a2 <> 0 then None
    else if b2 = 0 then const Punk
    else if a1 = 0 then const (Pint (b1 mod b2))
    else
      (* x mod c = x - c*(x/c) exactly (both truncate toward zero), so
         on each quotient level run the remainder is affine in p. *)
      Some
        (List.map
           (fun (rl, ru, q) ->
             if rl = ru then (rl, ru, Sconst (Pint ((a1 * rl) + b1 - (b2 * q))))
             else (rl, ru, saff a1 (b1 - (b2 * q))))
           (div_runs l u (a1, b1) b2))
  | Eq | Ne ->
    let t, f =
      if op = Eq then (Sconst (Pbool true), Sconst (Pbool false))
      else (Sconst (Pbool false), Sconst (Pbool true))
    in
    let da = a1 - a2 and db = b1 - b2 in
    if da = 0 then Some [ (l, u, if db = 0 then t else f) ]
    else Some (eq_point_split l u da db ~t ~f)
  | Lt | Le | Gt | Ge ->
    let rel = match op with Lt -> `Lt | Le -> `Le | Gt -> `Gt | _ -> `Ge in
    let da = a1 - a2 and db = b1 - b2 in
    if da = 0 then
      const (pv2 op (Pint b1) (Pint b2))
    else
      Some
        (halfline_split l u (rel_halfline da db rel)
           ~t:(Sconst (Pbool true)) ~f:(Sconst (Pbool false)))
  | Max | Min ->
    let da = a1 - a2 and db = b1 - b2 in
    let s1 = saff a1 b1 and s2 = saff a2 b2 in
    if da = 0 then
      (* dense max2 keeps the FIRST operand on ties (>=/<=) *)
      let keep1 = if op = Max then db >= 0 else db <= 0 in
      Some [ (l, u, if keep1 then s1 else s2) ]
    else
      let rel = if op = Max then `Ge else `Le in
      Some (halfline_split l u (rel_halfline da db rel) ~t:s1 ~f:s2)
  | And | Or ->
    (* int .and. int is Punk regardless of the values *)
    const Punk
  | Join ->
    if a1 = a2 && b1 = b2 then Some [ (l, u, saff a1 b1) ]
    else
      let da = a1 - a2 and db = b1 - b2 in
      if da = 0 then const Punk
      else
        Some
          (List.map
             (fun (x, y, s) ->
               match s with
               | Sconst (Pbool true) -> (x, y, Sconst (Pint ((a1 * x) + b1)))
               | _ -> (x, y, Sconst Punk))
             (eq_point_split l u da db ~t:(Sconst (Pbool true))
                ~f:(Sconst (Pbool false))))
  | Pow -> None

(* Is [pv2 op] with this constant on one side independent of the other
   (integer) operand's value?  True for Punk and booleans against ints:
   every operator's result is then the same constant for any int lane,
   so a whole affine run collapses in O(1). *)
let absorbing = function Punk | Pbool _ -> true | Pint _ | Preal _ -> false

let seg2 op l u s1 s2 =
  match (s1, s2) with
  | Sconst x, Sconst y -> [ (l, u, Sconst (pv2 op x y)) ]
  | _ -> (
    match (lin_of s1, lin_of s2) with
    | Some c1, Some c2 -> (
      match lin2 op l u c1 c2 with
      | Some segs -> segs
      | None -> expand2 op l u s1 s2)
    | _ -> (
      (* exactly one side is a non-int constant, the other affine *)
      match (s1, s2) with
      | Sconst v, _ when absorbing v -> [ (l, u, Sconst (pv2 op v (Pint 0))) ]
      | _, Sconst v when absorbing v -> [ (l, u, Sconst (pv2 op (Pint 0) v)) ]
      | _ -> expand2 op l u s1 s2))

(* my$p = k (or /=) for a uniform int k, the shape of every owner
   guard: false everywhere but at pid k, built directly instead of run
   by run; [seg2]'s [eq_point_split] gives the same runs. *)
let guard_eq ~n op k =
  let t, f = if op = Eq then (Pbool true, Pbool false) else (Pbool false, Pbool true) in
  if k < 0 || k > n - 1 then Uni f
  else
    let fs l u rest = if l <= u then (l, u, Sconst f) :: rest else rest in
    Runs (fs 0 (k - 1) ((k, k, Sconst t) :: fs (k + 1) (n - 1) []))

let app2 ~n op a b =
  match (op, a, b) with
  | (Eq | Ne), Runs [ (0, _, Saff { a = 1; b = 0 }) ], Uni (Pint k)
  | (Eq | Ne), Uni (Pint k), Runs [ (0, _, Saff { a = 1; b = 0 }) ] ->
    guard_eq ~n op k
  (* Kleene: a uniform false decides .and., a uniform true .or., on
     every lane whatever the other operand holds *)
  | And, (Uni (Pbool false) as v), _
  | And, _, (Uni (Pbool false) as v)
  | Or, (Uni (Pbool true) as v), _
  | Or, _, (Uni (Pbool true) as v) ->
    v
  | _, Uni x, Uni y -> Uni (pv2 op x y)
  | _, Uni x, Runs rs ->
    norm ~n (List.concat_map (fun (l, u, s) -> seg2 op l u (Sconst x) s) rs)
  | _, Runs rs, Uni y ->
    norm ~n (List.concat_map (fun (l, u, s) -> seg2 op l u s (Sconst y)) rs)
  | _, Runs _, Runs _ ->
    norm ~n
      (List.concat_map
         (fun (l, u, s1, s2) -> seg2 op l u s1 s2)
         (align ~n a b))

let seg1 op l u s =
  match s with
  | Sconst v -> [ (l, u, Sconst (pv1 op v)) ]
  | Saff { a; b } -> (
    match op with
    | Neg -> [ (l, u, saff (-a) (-b)) ]
    | ToInt -> [ (l, u, s) ]
    | Not -> [ (l, u, Sconst Punk) ]
    | Abs when bounded u (a, b) ->
      (* split at the sign change: |a*p + b| is -(a*p+b) where negative *)
      halfline_split l u (rel_halfline a b `Lt) ~t:(saff (-a) (-b)) ~f:s
    | Abs | ToReal ->
      List.init (u - l + 1) (fun i ->
          let p = l + i in
          (p, p, Sconst (pv1 op (seg_at s p)))))

let app1 ~n op v =
  match v with
  | Uni x -> Uni (pv1 op x)
  | Runs segs ->
    norm ~n (List.concat_map (fun (l, u, s) -> seg1 op l u s) segs)

(* Escape hatch for the rare intrinsics without a segment rule:
   pointwise application with run expansion -- the dense cost, but only
   where the program actually does something exotic.  [Uni] operands and
   [Sconst] chunks stay O(1). *)
let app_pv ~n f vs =
  let apply segs p = Sconst (f (List.map (fun s -> seg_at s p) segs)) in
  if List.for_all is_uniform vs then Uni (f (List.map (fun v -> at v 0) vs))
  else
    norm ~n
      (List.concat_map
         (fun (l, u, segs) ->
           if List.for_all (function Sconst _ -> true | Saff _ -> false) segs then
             [ (l, u, apply segs l) ]
           else List.init (u - l + 1) (fun i -> (l + i, l + i, apply segs (l + i))))
         (align_many ~n vs))

let join ~n a b = app2 ~n Join a b

(* [store ~n ~into v]: lane by lane, {!Value.stored}.  A lane whose
   cell is unknown keeps [v]'s lane, for its type is unknown there.  An
   integer run stored into an INTEGER or LOGICAL cell stays affine; one
   stored into a REAL cell becomes one constant per lane. *)
let store ~n ~into v =
  (* whether storing [x] into a cell holding [c] leaves [x] as it is *)
  let as_is c x =
    match (c, x) with
    | (Punk | Pbool _), _ | _, Punk | Pint _, Pint _ | Preal _, Preal _ -> true
    | _ -> false
  in
  let one c x = if as_is c x then x else lift2 (fun into v -> Value.stored ~into v) c x in
  let keeps c = function Saff _ -> as_is c (Pint 0) | Sconst x -> as_is c x in
  let chunk (l, u, segs) =
    match segs with
    | [ Sconst c; Sconst x ] -> [ (l, u, Sconst (one c x)) ]
    | [ (Saff _ | Sconst (Pint _ | Pbool _ | Punk)); (Saff _ as s) ] -> [ (l, u, s) ]
    | [ Saff _; Sconst x ] -> [ (l, u, Sconst (one (Pint 0) x)) ]
    | [ c; x ] ->
      List.init (u - l + 1) (fun i ->
          let p = l + i in
          (p, p, Sconst (one (seg_at c p) (seg_at x p))))
    | _ -> invalid_arg "Absdom.store"
  in
  match (into, v) with
  | Uni c, Uni x -> if as_is c x then v else Uni (one c x)
  | Uni c, Runs segs when List.for_all (fun (_, _, s) -> keeps c s) segs -> v
  | _ -> norm ~n (List.concat_map chunk (align_many ~n [ into; v ]))

(* [blend ~n ~act old upd]: processors in [act] take [upd], the rest
   keep [old] — the masked assignment under a partial active set. *)
let blend ~n ~(act : Iset.t) old upd =
  let ivs = Iset.intervals act in
  match ivs with
  | [ (0, u) ] when u = n - 1 -> upd
  | [] -> old
  | _ -> (
    match (old, upd) with
    | Uni x, Uni y when pv_equal x y -> old
    | _ ->
      let rec stitch pos ivs acc =
        if pos > n - 1 then List.rev acc
        else
          match ivs with
          | (l, u) :: rest ->
            if pos < l then
              stitch l ivs (List.rev_append (restrict ~n old (pos, l - 1)) acc)
            else
              stitch (u + 1) rest (List.rev_append (restrict ~n upd (l, u)) acc)
          | [] -> List.rev_append acc (restrict ~n old (pos, n - 1))
      in
      norm ~n (stitch 0 ivs []))

(* --- branch-condition classification ----------------------------------- *)

type truth =
  | T_true
  | T_false
  | T_unknown_uniform  (* same unknown on every processor *)
  | T_split of Iset.t * Iset.t  (* decided lane-by-lane on the active set *)
  | T_divergent  (* some active lane's truth is unknown *)

(* One sweep of the runs against [act]'s intervals: any active lane of
   unknown truth makes the branch divergent, else the active true and
   false lanes are collected and each side is built once. *)
let truth ~n:_ ~act v =
  match v with
  | Uni (Pbool true) -> T_true
  | Uni (Pbool false) -> T_false
  | Uni _ -> T_unknown_uniform
  | Runs segs ->
    let rec sweep ts fs segs ivs =
      match (segs, ivs) with
      | [], _ | _, [] ->
        T_split (Iset.of_intervals (List.rev ts), Iset.of_intervals (List.rev fs))
      | (l, u, s) :: rs, (a, b) :: ri -> (
        let lo = max l a and hi = min u b in
        let next ts fs = if u < b then sweep ts fs rs ivs else sweep ts fs segs ri in
        if lo > hi then next ts fs
        else
          match s with
          | Sconst (Pbool true) -> next ((lo, hi) :: ts) fs
          | Sconst (Pbool false) -> next ts ((lo, hi) :: fs)
          | _ -> T_divergent)
    in
    sweep [] [] segs (Iset.intervals act)

(* The truth of a condition whose every lane is a known boolean, true
   exactly on the pids of [t], a subset of [0, n-1].  Such lanes are
   [Uni] exactly when [t] is empty or every pid, so this is what [truth]
   makes of them, its sets built by [of_intervals] as [truth] builds
   them. *)
let truth_of_pids ~n ~act t =
  let c = Iset.count t in
  if c = n then T_true
  else if c = 0 then T_false
  else
    let ts, fs = Iset.split act t in
    T_split (ts, fs)
