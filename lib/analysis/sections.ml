(* Collection of array references with their loop context, and
   concretization into regular sections (regions).  This is the "local RSD
   analysis" feeding interprocedural side effects, dependence testing,
   communication analysis, and overlap estimation. *)

open Fd_support
open Fd_frontend

type loop_ctx = {
  lvar : string;
  llo : Affine.t option;
  lhi : Affine.t option;
  lstep : int;  (* constant step; non-constant steps are rejected upstream *)
  lsid : int;
}

type ref_info = {
  array : string;
  sid : int;            (* id of the enclosing statement *)
  is_write : bool;
  subs : Affine.t option list;  (* per dimension; None = non-affine *)
  loops : loop_ctx list;        (* enclosing loops, outermost first *)
}

(* The loop context of DO statement [s]; a step that is not a constant
   counts as 1. *)
let loop_ctx (symtab : Symtab.t) (s : Ast.stmt) (d : Ast.do_stmt) : loop_ctx =
  let step =
    match Option.bind d.Ast.step (Affine.of_expr symtab) with
    | Some a -> Option.value (Affine.const_value a) ~default:1
    | None -> 1
  in
  { lvar = d.Ast.var;
    llo = Affine.of_expr symtab d.Ast.lo;
    lhi = Affine.of_expr symtab d.Ast.hi;
    lstep = step;
    lsid = s.Ast.sid }

let collect (symtab : Symtab.t) (body : Ast.stmt list) : ref_info list =
  let out = ref [] in
  let rec walk loops (s : Ast.stmt) =
    let record ~is_write e =
      match e with
      | Ast.Ref (array, subs) when Symtab.is_array symtab array ->
        out :=
          { array;
            sid = s.Ast.sid;
            is_write;
            subs = List.map (Affine.of_expr symtab) subs;
            loops = List.rev loops }
          :: !out
      | _ -> ()
    in
    let record_reads e = Ast.iter_exprs_expr (fun e' -> record ~is_write:false e') e in
    match s.Ast.kind with
    | Ast.Assign (lhs, rhs) ->
      record ~is_write:true lhs;
      (* subscripts of the lhs are themselves reads *)
      (match lhs with
      | Ast.Ref (_, subs) -> List.iter record_reads subs
      | _ -> ());
      record_reads rhs
    | Ast.Do d ->
      record_reads d.lo;
      record_reads d.hi;
      Option.iter record_reads d.step;
      List.iter (walk (loop_ctx symtab s d :: loops)) d.body
    | Ast.If i ->
      record_reads i.cond;
      List.iter (walk loops) i.then_;
      List.iter (walk loops) i.else_
    | Ast.Call (_, args) ->
      (* whole-array actuals are handled interprocedurally; subscripted
         actuals are reads *)
      List.iter record_reads args
    | Ast.Print args -> List.iter record_reads args
    | Ast.Align _ | Ast.Distribute _ | Ast.Return -> ()
  in
  List.iter (walk []) body;
  List.rev !out

(* --- Interval evaluation of affine forms ----------------------------- *)

(* [affine_range env a] is the (min, max) of [a] when every variable's
   range is known from [env]; None otherwise. *)
let affine_range (env : string -> (int * int) option) (a : Affine.t) :
    (int * int) option =
  let rec loop lo hi = function
    | [] -> Some (lo, hi)
    | v :: rest -> (
      match env v with
      | None -> None
      | Some (vlo, vhi) ->
        let c = Affine.coeff_of v a in
        if c >= 0 then loop (lo + (c * vlo)) (hi + (c * vhi)) rest
        else loop (lo + (c * vhi)) (hi + (c * vlo)) rest)
  in
  let k = Affine.constant a in
  loop k k (Affine.vars a)

(* Range environment from a loop context list: each loop variable ranges
   over its (constant-bounds) extent, widened through outer loops. *)
let loop_ranges (loops : loop_ctx list) : string -> (int * int) option =
  let table = Hashtbl.create 8 in
  List.iter
    (fun ctx ->
      let env v = Hashtbl.find_opt table v in
      let lo = Option.bind ctx.llo (affine_range env) in
      let hi = Option.bind ctx.lhi (affine_range env) in
      match (lo, hi) with
      | Some (lo_min, _), Some (_, hi_max) when lo_min <= hi_max ->
        Hashtbl.replace table ctx.lvar (lo_min, hi_max)
      | _ -> ())
    loops;
  fun v -> Hashtbl.find_opt table v

(* Concretize one reference into a region over the declared bounds.
   Falls back to the whole declared extent per dimension when a subscript
   is non-affine or mentions a variable with unknown range; this keeps the
   result a sound over-approximation of the accessed section. *)
let region_of_ref ~(declared : (int * int) list) (r : ref_info) : Region.t =
  let env = loop_ranges r.loops in
  let dim_triplet (dlo, dhi) sub =
    let whole = Triplet.make ~lo:dlo ~hi:dhi ~step:1 in
    match sub with
    | None -> whole
    | Some a -> (
      (* Strided section when the subscript is affine in exactly one
         ranged variable; hull otherwise. *)
      match Affine.vars a with
      | [] -> (
        match Affine.const_value a with
        | Some k -> Triplet.singleton k
        | None -> whole)
      | [ v ] -> (
        match env v with
        | Some (vlo, vhi) ->
          let c = Affine.coeff_of v a in
          let at x = Affine.eval (fun u -> if String.equal u v then Some x else None) a in
          let x1 = at vlo and x2 = at vhi in
          let lo = min x1 x2 and hi = max x1 x2 in
          Triplet.make ~lo ~hi ~step:(max 1 (abs c))
        | None -> whole)
      | _ -> (
        match affine_range env a with
        | Some (lo, hi) -> Triplet.make ~lo ~hi ~step:1
        | None -> whole))
  in
  if List.length declared <> List.length r.subs then
    (* rank mismatch (reshaping): conservative whole-array *)
    Region.of_triplets (List.map (fun (lo, hi) -> Triplet.make ~lo ~hi ~step:1) declared)
  else Region.of_triplets (List.map2 dim_triplet declared r.subs)

(* Union of regions accessed by a predicate over refs. *)
let accessed_region ~declared refs ~pred =
  List.fold_left
    (fun acc r ->
      if pred r then Region.union acc (region_of_ref ~declared r) else acc)
    (Region.empty (List.length declared))
    refs

let written_region ~declared ~array refs =
  accessed_region ~declared refs ~pred:(fun r ->
      r.is_write && String.equal r.array array)
