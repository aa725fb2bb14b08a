(* Data-dependence testing over affine subscripts (ZIV, strong-SIV and
   weak-zero SIV tests, conservative elsewhere), specialized to what
   Fortran D communication analysis needs: the set of common loop levels
   at which a *true* (flow) dependence from a write to a read may be
   carried, plus loop-independent dependences.

   Levels are 1-based from the outermost common loop.  A dependence is
   carried at level L when the loops above L run the same iteration for
   the write and the read and loop L runs the write first, so each level
   is tested on its own: the variables of the loops above it are shared
   symbols, its own variable advances, and the variables of deeper or
   non-common loops are free.  Distances count iterations, so steps other
   than 1 (negative ones too) are exact, and a distance that is not a
   whole number of iterations (a red-black sweep's neighbours) is no
   dependence at all.  Communication for the read must stay inside the
   deepest carried level; it may be hoisted out of all deeper loops
   [Hiranandani-Kennedy-Tseng]. *)

type result = { carried : int list; loop_independent : bool }

let common_loops (w : Sections.loop_ctx list) (r : Sections.loop_ctx list) :
    Sections.loop_ctx list =
  let rec loop acc = function
    | wc :: wrest, rc :: rrest when wc.Sections.lsid = rc.Sections.lsid ->
      loop (wc :: acc) (wrest, rrest)
    | _ -> List.rev acc
  in
  loop [] (w, r)

(* What one dimension says about the write and read instances. *)
type dim =
  | Indep          (* the subscripts never meet *)
  | Dist of int    (* they meet only [k] iterations apart in the tested loop *)
  | Any            (* unknown, or they may meet at any distance *)

let meet a b =
  match (a, b) with
  | Indep, _ | _, Indep -> Indep
  | Any, d | d, Any -> d
  | Dist x, Dist y -> if x = y then a else Indep

let trip_count (l : Sections.loop_ctx) : int option =
  match (Option.bind l.llo Affine.const_value, Option.bind l.lhi Affine.const_value) with
  | Some lo, Some hi when l.lstep <> 0 ->
    if (hi - lo) * l.lstep < 0 then Some 0 else Some (((hi - lo) / l.lstep) + 1)
  | _ -> None

(* ZIV: subscripts that differ by a nonzero constant never meet. *)
let ziv aw ar =
  match Affine.const_value (Affine.sub aw ar) with
  | Some k when k <> 0 -> Indep
  | _ -> Any

(* Weak-zero SIV: [a = c*v + rest] over the loop's range never equals
   [f].  Bounds may be symbolic when they differ from [f] by a
   constant. *)
let out_of_range (l : Sections.loop_ctx) c rest f =
  let vmin, vmax = if l.lstep > 0 then (l.llo, l.lhi) else (l.lhi, l.llo) in
  let at v = Option.map (fun b -> Affine.add (Affine.scale c b) rest) v in
  let lower, upper = if c > 0 then (at vmin, at vmax) else (at vmax, at vmin) in
  let above x y =
    match Option.map (fun x -> Affine.const_value (Affine.sub x y)) x with
    | Some (Some k) -> k >= 1
    | _ -> false
  in
  above lower f || match upper with Some u -> above (Some f) u | None -> false

(* One subscript pair at loop [l] (None: the loop-independent test). *)
let dim_test ~free (l : Sections.loop_ctx option) sw sr =
  match (sw, sr, l) with
  | Some aw, Some ar, _
    when List.exists (fun v -> Affine.coeff_of v aw <> 0 || Affine.coeff_of v ar <> 0) free ->
    Any
  | Some aw, Some ar, None -> ziv aw ar
  | Some aw, Some ar, Some l when l.Sections.lstep <> 0 -> (
    let v = l.Sections.lvar in
    let cw = Affine.coeff_of v aw and cr = Affine.coeff_of v ar in
    let rw = Affine.drop_var v aw and rr = Affine.drop_var v ar in
    if cw = 0 && cr = 0 then ziv aw ar
    else if cw = cr then
      (* strong SIV: cw*i_w + rw = cw*i_r + rr, and i_r - i_w is a
         multiple of the step whatever the lower bound *)
      match Affine.const_value (Affine.sub rw rr) with
      | Some diff when diff mod (cw * l.lstep) <> 0 -> Indep
      | Some diff -> (
        let k = diff / (cw * l.lstep) in
        match trip_count l with Some n when abs k >= n -> Indep | _ -> Dist k)
      | None -> Any
    else if cr = 0 && out_of_range l cw rw ar then Indep
    else if cw = 0 && out_of_range l cr rr aw then Indep
    else Any)
  | _ -> Any

(* True-dependence levels from write [w] to read [r] on the same array.
   [w] and [r] must refer to the same array; statements are ordered by
   sid (textual order). *)
let true_dep (w : Sections.ref_info) (r : Sections.ref_info) : result =
  assert (String.equal w.Sections.array r.Sections.array);
  let commons = common_loops w.loops r.loops in
  let vars loops = List.map (fun l -> l.Sections.lvar) loops in
  let not_common loops = List.filteri (fun i _ -> i >= List.length commons) loops in
  let outside = vars (not_common w.loops) @ vars (not_common r.loops) in
  let test ~free l =
    if List.length w.subs <> List.length r.subs then Any  (* reshaping *)
    else List.fold_left2 (fun acc sw sr -> meet acc (dim_test ~free l sw sr)) Any w.subs r.subs
  in
  let carried =
    commons
    |> List.mapi (fun i l ->
           let deeper = vars (List.filteri (fun j _ -> j > i) commons) in
           match test ~free:(deeper @ outside) (Some l) with
           | Any -> Some (i + 1)
           | Dist k when k > 0 -> Some (i + 1)
           | _ -> None)
    |> List.filter_map Fun.id
  in
  { carried;
    loop_independent = test ~free:outside None <> Indep && w.sid <= r.sid }
