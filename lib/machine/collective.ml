(* Remap planning for the scheduler's collective sites.

   [plan_remap] performs the global data movement of a dynamic
   redistribution — switching layouts everywhere, then copying each moved
   element from its old owner — and returns the [remap_summary] the
   scheduler's time/stats accounting consumes.  Owners come from layout
   arithmetic on the distributed coordinates, so a remap costs
   O(elements + P) besides the copies themselves. *)

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

(* [f a b r] for every processor [r] that holds an element under the new
   layout but not under the old one.  [h] and [n] are its holders under
   the old and the new layout in [Layout.exact_owner]'s encoding: -1 for
   nobody, [nprocs] for everyone. *)
let each_receiver ~nprocs h n f a b =
  if h < nprocs then
    if n = nprocs then
      for r = 0 to nprocs - 1 do
        if r <> h then f a b r
      done
    else if n >= 0 && n <> h then f a b n

let tally tbl key c =
  Hashtbl.replace tbl key (c + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let plan_remap ~nprocs ~word_bytes ~(objs : Storage.array_obj option array)
    ~(obj0 : Storage.array_obj) ~(new_layout : Layout.t) ~(move : bool) :
    remap_summary =
  let old_layout = obj0.Storage.layout in
  (* switch layouts everywhere (resets validity to new ownership) *)
  let objs =
    Array.map
      (function
        | Some obj ->
          Storage.set_layout obj new_layout;
          obj
        | None ->
          Diag.internal ~pass:"simulate" "remap: a processor has no storage object")
      objs
  in
  let sent = Array.make nprocs 0 and received = Array.make nprocs 0 in
  (* bytes per partner pair, keyed [q * nprocs + r] *)
  let partners = Hashtbl.create 16 in
  let bump q bytes r =
    sent.(q) <- sent.(q) + bytes;
    received.(r) <- received.(r) + bytes;
    let k = (q * nprocs) + r in
    match Hashtbl.find partners k with
    | b -> b := !b + bytes
    | exception Not_found -> Hashtbl.add partners k (ref bytes)
  in
  if move && obj0.Storage.size > 0 then begin
    (* per coordinate of each layout's distributed dimension (dimension 0
       when it has none): the old owner, and the holders before and after;
       a layout without a distributed dimension is held by everyone *)
    let dim (l : Layout.t) = Option.value ~default:0 l.Layout.dist_dim in
    let d_old = dim old_layout and d_new = dim new_layout in
    let per_coord d f =
      let lo, hi = obj0.Storage.bounds.(d) in
      Array.init (hi - lo + 1) (fun i -> f (lo + i))
    in
    let holder (l : Layout.t) g =
      match l.Layout.dist_dim with
      | None -> nprocs
      | Some _ -> Layout.exact_owner l ~nprocs g
    in
    let owner = per_coord d_old (Layout.owner_of old_layout ~nprocs) in
    let had = per_coord d_old (holder old_layout) in
    let needs = per_coord d_new (holder new_layout) in
    (* the traffic: each coordinate's elements move together *)
    let ext_old = Array.length owner and ext_new = Array.length needs in
    if d_old = d_new then begin
      let bytes = obj0.Storage.size / ext_old * word_bytes in
      Array.iteri (fun i q -> each_receiver ~nprocs had.(i) needs.(i) bump q bytes) owner
    end
    else begin
      (* the two coordinates vary independently: pair up their classes *)
      let olds = Hashtbl.create 16 and news = Hashtbl.create 16 in
      Array.iteri (fun i q -> tally olds (q, had.(i)) 1) owner;
      Array.iter (fun n -> tally news n 1) needs;
      let bytes = obj0.Storage.size / (ext_old * ext_new) * word_bytes in
      Hashtbl.iter
        (fun (q, h) ci ->
          Hashtbl.iter (fun n cj -> each_receiver ~nprocs h n bump q (ci * cj * bytes)) news)
        olds
    end;
    (* the data, in one pass over the flat indices, whose coordinates
       [i] and [j] in the two dimensions are counted along: each run of
       elements with one old owner and the same holders before and after
       is one range copy per receiver *)
    let s_old = obj0.Storage.strides.(d_old) and s_new = obj0.Storage.strides.(d_new) in
    let i = ref 0 and i_run = ref 0 and j = ref 0 and j_run = ref 0 in
    let start = ref 0 and q = ref owner.(0) and h = ref had.(0) and n = ref needs.(0) in
    let copy a len r = Storage.copy_range ~src:objs.(!q) ~dst:objs.(r) a len in
    let flush stop = each_receiver ~nprocs !h !n copy !start (stop - !start) in
    for flat = 0 to obj0.Storage.size - 1 do
      if owner.(!i) <> !q || had.(!i) <> !h || needs.(!j) <> !n then begin
        flush flat;
        start := flat;
        q := owner.(!i);
        h := had.(!i);
        n := needs.(!j)
      end;
      incr i_run;
      if !i_run = s_old then begin
        i_run := 0;
        i := if !i + 1 = ext_old then 0 else !i + 1
      end;
      incr j_run;
      if !j_run = s_new then begin
        j_run := 0;
        j := if !j + 1 = ext_new then 0 else !j + 1
      end
    done;
    flush obj0.Storage.size
  end;
  let npairs = Array.make nprocs 0 in
  let pairs =
    Hashtbl.fold
      (fun k b acc ->
        let q = k / nprocs and r = k mod nprocs in
        npairs.(q) <- npairs.(q) + 1;
        npairs.(r) <- npairs.(r) + 1;
        ((q, r), !b) :: acc)
      partners []
  in
  let total_bytes = Array.fold_left ( + ) 0 sent in
  (* Hashtbl iteration order is unspecified: sort the partner pairs so
     traces are deterministic run-to-run. *)
  let pairs = List.sort compare pairs in
  { rs_array = obj0.Storage.name; rs_total_bytes = total_bytes;
    rs_sent = sent; rs_received = received; rs_npairs = npairs;
    rs_pairs = pairs; rs_mark_only = not move }
