(* Remap planning for the scheduler's collective sites.

   [plan_remap] performs the global data movement of a dynamic
   redistribution — planning element moves from the old layout, switching
   layouts everywhere, applying the copies — and returns the
   [remap_summary] the scheduler's time/stats accounting consumes. *)

open Fd_support

type remap_summary = {
  rs_array : string;
  rs_total_bytes : int;
  rs_sent : int array;       (* per-processor bytes sent *)
  rs_received : int array;   (* per-processor bytes received *)
  rs_npairs : int array;     (* per-processor partner-pair count *)
  rs_pairs : ((int * int) * int) list;  (* sorted ((src, dest), bytes) *)
  rs_mark_only : bool;
}

let plan_remap ~nprocs ~word_bytes ~(objs : Storage.array_obj option array)
    ~(obj0 : Storage.array_obj) ~(new_layout : Layout.t) ~(move : bool) :
    remap_summary =
  let old_layout = obj0.Storage.layout in
  let old_owned = Layout.owned old_layout ~nprocs in
  let new_owned = Layout.owned new_layout ~nprocs in
  let sent = Array.make nprocs 0 and received = Array.make nprocs 0 in
  let partners = Hashtbl.create 16 in
  let moves = ref [] in
  (* plan the data movement before touching layouts *)
  if move then
    Storage.iter_elements obj0 (fun idx _flat ->
        let dim_index d = idx.(d) in
        let old_owner =
          match old_layout.Layout.dist_dim with
          | None -> 0  (* replicated: processor 0 is as authoritative as any *)
          | Some d -> Layout.owner_of old_layout ~nprocs (dim_index d)
        in
        for r = 0 to nprocs - 1 do
          let needs =
            match new_layout.Layout.dist_dim with
            | None -> true
            | Some d -> Iset.mem (dim_index d) new_owned.(r)
          in
          let had =
            match old_layout.Layout.dist_dim with
            | None -> true
            | Some d -> Iset.mem (dim_index d) old_owned.(r)
          in
          if needs && not had then begin
            let src_obj =
              match objs.(old_owner) with
              | Some o -> o
              | None ->
                Diag.internal ~pass:"simulate"
                  "remap: old owner p%d has no storage object" old_owner
            in
            let v =
              Storage.get_raw src_obj (Storage.flat_index src_obj idx)
            in
            moves := (r, Array.copy idx, v) :: !moves;
            sent.(old_owner) <- sent.(old_owner) + word_bytes;
            received.(r) <- received.(r) + word_bytes;
            let prev =
              Option.value ~default:0 (Hashtbl.find_opt partners (old_owner, r))
            in
            Hashtbl.replace partners (old_owner, r) (prev + word_bytes)
          end
        done);
  (* switch layouts everywhere (resets validity to new ownership) *)
  Array.iter
    (function
      | Some obj -> Storage.set_layout ~nprocs obj new_layout
      | None ->
        Diag.internal ~pass:"simulate" "remap: a processor has no storage object")
    objs;
  (* apply the planned copies *)
  List.iter
    (fun (r, idx, v) ->
      match objs.(r) with
      | Some obj -> Storage.receive obj idx v
      | None ->
        Diag.internal ~pass:"simulate" "remap: receiver p%d has no storage object"
          r)
    !moves;
  let npairs = Array.make nprocs 0 in
  Hashtbl.iter
    (fun (q, r) _bytes ->
      npairs.(q) <- npairs.(q) + 1;
      npairs.(r) <- npairs.(r) + 1)
    partners;
  let total_bytes = Array.fold_left ( + ) 0 sent in
  (* Hashtbl iteration order is unspecified: sort the partner pairs so
     traces are deterministic run-to-run. *)
  let pairs =
    List.sort compare (Hashtbl.fold (fun k b acc -> (k, b) :: acc) partners [])
  in
  { rs_array = obj0.Storage.name; rs_total_bytes = total_bytes;
    rs_sent = sent; rs_received = received; rs_npairs = npairs;
    rs_pairs = pairs; rs_mark_only = not move }
