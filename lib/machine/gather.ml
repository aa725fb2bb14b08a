(* Comparison of a simulated run's distributed arrays, read from each
   element's owner, against the sequential reference execution. *)

open Fd_support
open Fd_frontend

type mismatch = {
  m_array : string;
  m_index : int array;
  m_expected : Value.t;
  m_actual : Value.t;
}

(* Relative tolerance on REAL elements. *)
let tol = 1e-9

(* REALs agree to [tol] relative to the larger magnitude (at least 1). *)
let close x y =
  let ax = Float.abs x and ay = Float.abs y in
  let scale = if ax > ay then ax else ay in
  Float.abs (x -. y) <= tol *. (if scale > 1.0 then scale else 1.0)

(* What an untouched page reads: zeros, as long as any page. *)
let zero_f = Array.make Storage.page_len 0.0
let zero_i = Array.make Storage.page_len 0
let zero_b = Array.make Storage.page_len false

let page pages zero pg = let p = Array.unsafe_get pages pg in if Array.length p = 0 then zero else p

(* [report flat] for each flat index in [lo, hi), inside one page, where
   [sim] disagrees with [seq]: one typed loop over the two pages. *)
let compare_range (seq : Storage.array_obj) (sim : Storage.array_obj) lo hi report =
  let pg = lo lsr Storage.page_bits in
  let base = pg lsl Storage.page_bits in
  match (seq.Storage.elt, sim.Storage.elt) with
  | Ast.Real, Ast.Real ->
    let a = page seq.Storage.fpages zero_f pg and b = page sim.Storage.fpages zero_f pg in
    if a != b then
      for k = lo - base to hi - base - 1 do
        if not (close (Array.unsafe_get a k) (Array.unsafe_get b k)) then report (base + k)
      done
  | Ast.Integer, Ast.Integer ->
    let a = page seq.Storage.ipages zero_i pg and b = page sim.Storage.ipages zero_i pg in
    if a != b then
      for k = lo - base to hi - base - 1 do
        if Array.unsafe_get a k <> Array.unsafe_get b k then report (base + k)
      done
  | Ast.Logical, Ast.Logical ->
    let a = page seq.Storage.bpages zero_b pg and b = page sim.Storage.bpages zero_b pg in
    if a != b then
      for k = lo - base to hi - base - 1 do
        if Array.unsafe_get a k <> Array.unsafe_get b k then report (base + k)
      done
  | _ ->
    for flat = lo to hi - 1 do
      if not (Value.equal (Storage.get_raw seq flat) (Storage.get_raw sim flat)) then report flat
    done

(* Compare a simulated run's main-program arrays against the sequential
   result: each element against its owner's copy.  The flat indices are
   cut into runs inside one page with one owner (the distributed
   coordinate is constant over [stride] consecutive indices), each
   compared in one typed loop; an untouched page reads zeros.  Returns
   the mismatches in row-major order per array (empty = verified). *)
let compare_results ~nprocs (seq : Seq_interp.result)
    (frames : Interp.frame array) : mismatch list =
  let mismatches = ref [] in
  List.iter
    (fun (name, (seq_obj : Storage.array_obj)) ->
      let obj_of p =
        match Hashtbl.find_opt frames.(p) name with
        | Some (Interp.Barray o) -> Some o
        | _ -> None
      in
      match obj_of 0 with
      | None ->
        mismatches :=
          { m_array = name; m_index = [||];
            m_expected = Value.Vint 0; m_actual = Value.Vint 0 }
          :: !mismatches
      | Some obj0 ->
        let layout = obj0.Storage.layout in
        (* each processor's copy, looked up the first time it owns an
           element *)
        let copies = Array.make nprocs None in
        let copy_of p =
          match copies.(p) with
          | Some o -> o
          | None -> (
            match obj_of p with
            | Some o when o.Storage.bounds = seq_obj.Storage.bounds ->
              copies.(p) <- Some o;
              o
            | Some _ -> Diag.error "gather: processor %d holds %s with other bounds" p name
            | None -> Diag.error "gather: processor %d lacks array %s" p name)
        in
        (* the owner of a flat index, and how many indices from it on
           share its distributed coordinate *)
        let owner_at, run_left =
          match layout.Layout.dist_dim with
          | None -> ((fun _ -> 0), fun _ -> Storage.page_len)
          | Some d ->
            let lo, hi = seq_obj.Storage.bounds.(d) in
            let ext = hi - lo + 1 and s = seq_obj.Storage.strides.(d) in
            let owners = Array.init ext (fun i -> Layout.owner_of layout ~nprocs (lo + i)) in
            ((fun flat -> owners.(flat / s mod ext)), fun flat -> s - (flat mod s))
        in
        let size = seq_obj.Storage.size in
        let flat = ref 0 in
        while !flat < size do
          let lo = !flat in
          let page_end = (lo lor (Storage.page_len - 1)) + 1 in
          let hi = min size (min page_end (lo + run_left lo)) in
          let sim = copy_of (owner_at lo) in
          compare_range seq_obj sim lo hi (fun at ->
              mismatches :=
                { m_array = name; m_index = Storage.index_of seq_obj at;
                  m_expected = Storage.get_raw seq_obj at;
                  m_actual = Storage.get_raw sim at }
                :: !mismatches);
          flat := hi
        done)
    seq.Seq_interp.arrays;
  List.rev !mismatches

let pp_mismatch ppf m =
  Fmt.pf ppf "%s(%s): expected %a, got %a" m.m_array
    (String.concat "," (Array.to_list (Array.map string_of_int m.m_index)))
    Value.pp m.m_expected Value.pp m.m_actual
