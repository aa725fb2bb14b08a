(* Reassembly of distributed arrays after a simulated run, and comparison
   against the sequential reference execution. *)

open Fd_support

type mismatch = {
  m_array : string;
  m_index : int array;
  m_expected : Value.t;
  m_actual : Value.t;
}

(* Read the authoritative (owner's) value of every element of [name] from
   the per-processor main frames; returns a replicated array object. *)
let gather_array ~nprocs (frames : Interp.frame array) (name : string) :
    Storage.array_obj option =
  let obj_of p =
    match Hashtbl.find_opt frames.(p) name with
    | Some (Interp.Barray o) -> Some o
    | _ -> None
  in
  match obj_of 0 with
  | None -> None
  | Some obj0 ->
    let layout = obj0.Storage.layout in
    let out =
      Storage.alloc ~proc:0 ~nprocs:1 name obj0.Storage.elt
        (Layout.replicated obj0.Storage.layout.Layout.bounds)
    in
    Storage.iter_elements obj0 (fun idx _ ->
        let owner =
          match layout.Layout.dist_dim with
          | None -> 0
          | Some d -> Layout.owner_of layout ~nprocs idx.(d)
        in
        match obj_of owner with
        | Some o -> Storage.write out idx (Storage.get_raw o (Storage.flat_index o idx))
        | None -> Diag.error "gather: processor %d lacks array %s" owner name);
    Some out

(* Relative tolerance on REAL elements. *)
let tol = 1e-9

let values_match a b =
  match (a, b) with
  | Value.Vreal x, Value.Vreal y ->
    let scale = Float.max 1.0 (Float.max (Float.abs x) (Float.abs y)) in
    Float.abs (x -. y) <= tol *. scale
  | _ -> Value.equal a b

(* Compare a simulated run's main-program arrays against the sequential
   result.  Returns the list of mismatches (empty = verified). *)
let compare_results ~nprocs (seq : Seq_interp.result)
    (frames : Interp.frame array) : mismatch list =
  let mismatches = ref [] in
  List.iter
    (fun (name, (seq_obj : Storage.array_obj)) ->
      match gather_array ~nprocs frames name with
      | None ->
        mismatches :=
          { m_array = name; m_index = [||];
            m_expected = Value.Vint 0; m_actual = Value.Vint 0 }
          :: !mismatches
      | Some sim_obj ->
        Storage.iter_elements seq_obj (fun idx flat ->
            let expected = Storage.get_raw seq_obj flat in
            let actual = Storage.get_raw sim_obj (Storage.flat_index sim_obj idx) in
            if not (values_match expected actual) then
              mismatches :=
                { m_array = name; m_index = idx; m_expected = expected;
                  m_actual = actual }
                :: !mismatches))
    seq.Seq_interp.arrays;
  List.rev !mismatches

let pp_mismatch ppf m =
  Fmt.pf ppf "%s(%s): expected %a, got %a" m.m_array
    (String.concat "," (Array.to_list (Array.map string_of_int m.m_index)))
    Value.pp m.m_expected Value.pp m.m_actual
