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

(* Whether the elements at [flat] of two arrays of one shape agree: REALs
   to [tol] relative to the larger magnitude (at least 1), anything else
   exactly, unboxed when both arrays hold INTEGERs or REALs. *)
let elements_match (a : Storage.array_obj) (b : Storage.array_obj) flat =
  match (a.Storage.elt, b.Storage.elt) with
  | Ast.Real, Ast.Real ->
    let x = Storage.read_float ~strict:false a flat
    and y = Storage.read_float ~strict:false b flat in
    let ax = Float.abs x and ay = Float.abs y in
    let scale = if ax > ay then ax else ay in
    Float.abs (x -. y) <= tol *. (if scale > 1.0 then scale else 1.0)
  | Ast.Integer, Ast.Integer ->
    Storage.read_int ~strict:false a flat = Storage.read_int ~strict:false b flat
  | _ -> Value.equal (Storage.get_raw a flat) (Storage.get_raw b flat)

(* Compare a simulated run's main-program arrays against the sequential
   result: each element against its owner's copy, flat index by flat
   index.  Returns the mismatches in row-major order per array (empty =
   verified). *)
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
        let owner_at =
          match layout.Layout.dist_dim with
          | None -> fun _ -> 0
          | Some d ->
            let lo, hi = seq_obj.Storage.bounds.(d) in
            let owners = Array.init (hi - lo + 1) (fun i -> Layout.owner_of layout ~nprocs (lo + i)) in
            fun idx -> owners.(idx.(d) - lo)
        in
        Storage.iter_elements seq_obj (fun idx flat ->
            let sim_obj = copy_of (owner_at idx) in
            if not (elements_match seq_obj sim_obj flat) then
              mismatches :=
                { m_array = name; m_index = Array.copy idx;
                  m_expected = Storage.get_raw seq_obj flat;
                  m_actual = Storage.get_raw sim_obj flat }
                :: !mismatches))
    seq.Seq_interp.arrays;
  List.rev !mismatches

let pp_mismatch ppf m =
  Fmt.pf ppf "%s(%s): expected %a, got %a" m.m_array
    (String.concat "," (Array.to_list (Array.map string_of_int m.m_index)))
    Value.pp m.m_expected Value.pp m.m_actual
