(* The dense fitting search of earlier code generators, kept as a test
   oracle for the closed-form families and their printer ({!Fd_core.Fit}):
   per-processor sets as a P-length array, searched for a linear or
   clipped-linear form, with a lookup table as the fallback. *)

open Fd_support
open Fd_frontend

let myp = Ast.Var "my$p"

let int_e n = Ast.Int_const n

(* a*my$p + b as an expression, simplified. *)
let linear_expr a b =
  if a = 0 then int_e b
  else
    let t = if a = 1 then myp else Ast.Bin (Ast.Mul, int_e a, myp) in
    if b = 0 then t
    else if b > 0 then Ast.Bin (Ast.Add, t, int_e b)
    else Ast.Bin (Ast.Sub, t, int_e (-b))

let tab_expr values =
  Ast.Funcall ("tab$", myp :: List.map int_e (Array.to_list values))

(* Fit v_p = a*p + b over the processors where mask holds. *)
let fit_linear ~(mask : bool array) (values : int array) : (int * int) option =
  let pts =
    Array.to_list (Array.mapi (fun p v -> (p, v)) values)
    |> List.filter (fun (p, _) -> mask.(p))
  in
  match pts with
  | [] -> Some (0, 0)
  | [ (p0, v0) ] -> Some (0, v0 - (0 * p0))
  | (p0, v0) :: (p1, v1) :: _ ->
    if (v1 - v0) mod (p1 - p0) <> 0 then None
    else
      let a = (v1 - v0) / (p1 - p0) in
      let b = v0 - (a * p0) in
      if List.for_all (fun (p, v) -> (a * p) + b = v) pts then Some (a, b) else None

(* Expression computing [values.(my$p)] for processors in [mask]:
   linear fit, then linear-with-min / linear-with-max clip, then table. *)
let expr_of_values ?(mask : bool array option) (values : int array) : Ast.expr =
  let n = Array.length values in
  let mask = match mask with Some m -> m | None -> Array.make n true in
  match fit_linear ~mask values with
  | Some (a, b) -> linear_expr a b
  | None ->
    (* try min(a*p+b, c): c = max over masked; fit linear on procs below c *)
    let masked = Listx.init_opt n (fun p -> if mask.(p) then Some values.(p) else None) in
    let try_clip pick name =
      match masked with
      | [] -> None
      | v0 :: rest ->
        let c = List.fold_left pick v0 rest in
        let inner_mask = Array.mapi (fun p v -> mask.(p) && v <> c) values in
        (match fit_linear ~mask:inner_mask values with
        | Some (a, b) when a <> 0 ->
          let ok = ref true in
          Array.iteri
            (fun p v ->
              if mask.(p) then begin
                let fitted = (a * p) + b in
                let clipped = if name = "min" then min fitted c else max fitted c in
                if clipped <> v then ok := false
              end)
            values;
          if !ok then Some (Ast.Funcall (name, [ linear_expr a b; int_e c ])) else None
        | _ -> None)
    in
    (match try_clip max "min" with
    | Some e -> e
    | None -> (
      match try_clip min "max" with
      | Some e -> e
      | None -> tab_expr values))

(* Guard expression true exactly on processors where [mask] holds;
   [None] when the mask is all-true. *)
let guard_of_mask (mask : bool array) : Ast.expr option =
  let n = Array.length mask in
  if Array.for_all Fun.id mask then None
  else if Array.for_all not mask then Some (Ast.Logical_const false)
  else begin
    (* contiguous range? *)
    let first = ref (-1) and last = ref (-1) and contiguous = ref true in
    Array.iteri
      (fun p m ->
        if m then begin
          if !first < 0 then first := p;
          if !last >= 0 && p > !last + 1 then contiguous := false;
          last := p
        end)
      mask;
    if !contiguous then begin
      let lo = !first and hi = !last in
      if lo = 0 then Some (Ast.Bin (Ast.Le, myp, int_e hi))
      else if hi = n - 1 then Some (Ast.Bin (Ast.Ge, myp, int_e lo))
      else if lo = hi then Some (Ast.Bin (Ast.Eq, myp, int_e lo))
      else
        Some
          (Ast.Bin
             (Ast.And, Ast.Bin (Ast.Ge, myp, int_e lo), Ast.Bin (Ast.Le, myp, int_e hi)))
    end
    else begin
      (* single pids at one stride k >= 2 print as a parity guard,
         bounded only where the progression goes on inside 0..n-1 *)
      let pids = List.filter (fun p -> mask.(p)) (List.init n Fun.id) in
      let lo = !first and hi = !last in
      let k = List.nth pids 1 - lo in
      if k >= 2 && List.length pids = ((hi - lo) / k) + 1 && List.for_all (fun p -> (p - lo) mod k = 0) pids
      then
        let conj keep op v g = if keep then Ast.Bin (Ast.And, g, Ast.Bin (op, myp, int_e v)) else g in
        Some
          (Ast.Bin (Ast.Eq, Ast.Funcall ("mod", [ myp; int_e k ]), int_e (lo mod k))
          |> conj (lo - k >= 0) Ast.Ge lo
          |> conj (hi + k <= n - 1) Ast.Le hi)
      else
        Some
          (Ast.Bin
             ( Ast.Eq,
               tab_expr (Array.map (fun m -> if m then 1 else 0) mask),
               int_e 1 ))
    end
  end

(* Fit a per-processor family of (at most single-triplet) sets into
   (lo, hi, step) expressions plus a guard restricting to processors with
   nonempty sets.  Empty-set processors are excluded via the guard; when
   every processor is empty, or some set needs several triplets, the
   result is None. *)
type fitted_triplet = {
  f_lo : Ast.expr;
  f_hi : Ast.expr;
  f_step : Ast.expr;
  f_guard : Ast.expr option;  (* None = all processors participate *)
}

let fit_procset_opt (sets : Iset.t array) : fitted_triplet option =
  let n = Array.length sets in
  let mask = Array.map (fun s -> not (Iset.is_empty s)) sets in
  let single s = match Iset.triplets s with [ _ ] -> true | _ -> false in
  if Array.for_all not mask || Array.exists2 (fun m s -> m && not (single s)) mask sets then None
  else begin
    (* default junk for empty processors so the table stays total: use an
       empty range lo=1, hi=0 *)
    let los = Array.make n 1 and his = Array.make n 0 and steps = Array.make n 1 in
    Array.iteri
      (fun p s ->
        match Iset.triplets s with
        | [ t ] ->
          los.(p) <- Triplet.lo t;
          his.(p) <- Triplet.hi t;
          steps.(p) <- Triplet.step t
        | _ -> ())
      sets;
    (* With every processor nonempty there is no guard.  Otherwise the
       bounds are fitted on the nonempty processors only and the mask
       guard is always kept: the junk bounds above only make the tables
       total, they never replace the guard. *)
    let fit_with m =
      ( expr_of_values ~mask:m los,
        expr_of_values ~mask:m his,
        expr_of_values ~mask:m steps )
    in
    let all = Array.make n true in
    let lo_e, hi_e, step_e, guard =
      if Array.for_all Fun.id mask then
        let l, h, s = fit_with all in
        (l, h, s, None)
      else
        let l, h, s = fit_with mask in
        (l, h, s, guard_of_mask mask)
    in
    Some { f_lo = lo_e; f_hi = hi_e; f_step = step_e; f_guard = guard }
  end

(* A family holding exactly the given per-processor sets, one run per
   processor. *)
let family_of_array (sets : Iset.t array) : Lanes.family =
  { Lanes.nprocs = Array.length sets; d = 0;
    runs =
      List.filter_map
        (fun p -> if Iset.is_empty sets.(p) then None else Some (p, p, sets.(p)))
        (List.init (Array.length sets) Fun.id) }
