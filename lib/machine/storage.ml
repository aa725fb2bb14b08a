(* Per-processor array storage.

   Every processor allocates the full global extent of each array (memory
   is cheap in simulation) but tracks per-element *validity*: an element
   is valid on a processor iff the processor owns it under the current
   layout, has written it, or has received it in a message.  In strict
   mode a read of an invalid element aborts the run — this catches
   compiler communication bugs even when stale values happen to agree. *)

open Fd_support
open Fd_frontend

type data =
  | Fdata of float array
  | Idata of int array
  | Bdata of bool array

type array_obj = {
  name : string;
  elt : Ast.dtype;
  bounds : (int * int) array;
  strides : int array;
  size : int;
  data : data;
  valid : Bytes.t;
  mutable layout : Layout.t;
  mutable owned : Iset.t;  (* this processor's owned set in the dist dim *)
  owner_proc : int;        (* which processor's memory this lives in *)
}

exception Invalid_read of { array : string; index : int array; proc : int }

let make_data elt size =
  match elt with
  | Ast.Real -> Fdata (Array.make size 0.0)
  | Ast.Integer -> Idata (Array.make size 0)
  | Ast.Logical -> Bdata (Array.make size false)

let rank obj = Array.length obj.bounds

(* Owned elements valid: each owned interval [a, b] of the distributed
   dimension d is one run of bytes per combination of the dimensions
   outside d. *)
let mark_initial_validity obj =
  match obj.layout.Layout.dist_dim with
  | None -> Bytes.fill obj.valid 0 obj.size '\001'
  | Some d when obj.size > 0 ->
    let (lo, hi), run = (obj.bounds.(d), obj.strides.(d)) in
    let span = if d = 0 then obj.size else obj.strides.(d - 1) in
    Iset.fold_intervals
      (fun () a b ->
        let a = max lo a and b = min hi b in
        if a <= b then
          for o = 0 to (obj.size / span) - 1 do
            Bytes.fill obj.valid ((o * span) + ((a - lo) * run)) ((b - a + 1) * run) '\001'
          done)
      () obj.owned
  | Some _ -> ()

let alloc ~proc ~nprocs name elt (layout : Layout.t) : array_obj =
  let bounds = Array.of_list layout.Layout.bounds in
  let rank = Array.length bounds in
  let extents = Array.map (fun (lo, hi) -> max 0 (hi - lo + 1)) bounds in
  let strides = Array.make rank 1 in
  for d = rank - 2 downto 0 do
    strides.(d) <- strides.(d + 1) * extents.(d + 1)
  done;
  let size = if rank = 0 then 1 else strides.(0) * extents.(0) in
  let obj =
    { name; elt; bounds; strides; size; data = make_data elt size;
      valid = Bytes.make size '\000'; layout;
      owned = Layout.owned_one layout ~nprocs proc; owner_proc = proc }
  in
  mark_initial_validity obj;
  obj

let rank_error obj n =
  Diag.error "array %s: rank %d referenced with %d subscripts" obj.name (rank obj) n

(* Offset of subscript [x] in 0-based dimension [d], bounds-checked. *)
let dim_offset obj d x =
  let lo, hi = obj.bounds.(d) in
  if x < lo || x > hi then
    Diag.error "array %s: subscript %d out of bounds %d:%d in dimension %d" obj.name x lo hi
      (d + 1);
  (x - lo) * obj.strides.(d)

let check_subscript obj d x = ignore (dim_offset obj d x)

let flat_index obj (idx : int array) : int =
  if Array.length idx <> rank obj then rank_error obj (Array.length idx);
  let flat = ref 0 in
  for d = 0 to Array.length idx - 1 do
    flat := !flat + dim_offset obj d idx.(d)
  done;
  !flat

(* [flat_index] for rank 1..3 without an index array: the same checks in
   the same order. *)
let index1 obj i = if rank obj <> 1 then rank_error obj 1; dim_offset obj 0 i

let index2 obj i j =
  if rank obj <> 2 then rank_error obj 2;
  let f = dim_offset obj 0 i in
  f + dim_offset obj 1 j

let index3 obj i j k =
  if rank obj <> 3 then rank_error obj 3;
  let f = dim_offset obj 0 i in
  let f = f + dim_offset obj 1 j in
  f + dim_offset obj 2 k

let get_raw obj flat =
  match obj.data with
  | Fdata a -> Value.Vreal a.(flat)
  | Idata a -> Value.Vint a.(flat)
  | Bdata a -> Value.Vbool a.(flat)

let set_raw obj flat (v : Value.t) =
  match obj.data with
  | Fdata a -> a.(flat) <- Value.to_float v
  | Idata a -> a.(flat) <- Value.to_int v
  | Bdata a -> a.(flat) <- Value.to_bool v

(* The subscripts of an in-bounds flat index. *)
let index_of obj flat =
  Array.mapi (fun d (lo, hi) -> lo + (flat / obj.strides.(d) mod (hi - lo + 1))) obj.bounds

let check_valid ~strict obj flat =
  if strict && Bytes.get obj.valid flat = '\000' then
    raise (Invalid_read { array = obj.name; index = index_of obj flat; proc = obj.owner_proc })

let read_flat ~strict obj flat =
  check_valid ~strict obj flat;
  get_raw obj flat

let elt_mismatch obj =
  Diag.internal ~pass:"simulate" "array %s read with a type it does not hold" obj.name

let read_int ~strict obj flat =
  check_valid ~strict obj flat;
  match obj.data with Idata a -> a.(flat) | _ -> elt_mismatch obj

let read_float ~strict obj flat =
  check_valid ~strict obj flat;
  match obj.data with Fdata a -> a.(flat) | _ -> elt_mismatch obj

let read ~strict obj idx = read_flat ~strict obj (flat_index obj idx)

let write_flat obj flat v =
  set_raw obj flat v;
  Bytes.set obj.valid flat '\001'

(* [write_flat] of a [Vint n] or a [Vreal x], unboxed. *)
let write_int obj flat n =
  (match obj.data with
  | Idata a -> a.(flat) <- n
  | Fdata a -> a.(flat) <- float_of_int n
  | Bdata _ -> set_raw obj flat (Value.Vint n));
  Bytes.set obj.valid flat '\001'

let write_float obj flat x =
  (match obj.data with
  | Fdata a -> a.(flat) <- x
  | Idata a -> a.(flat) <- int_of_float x
  | Bdata _ -> set_raw obj flat (Value.Vreal x));
  Bytes.set obj.valid flat '\001'

let write obj idx v = write_flat obj (flat_index obj idx) v

(* Store a received element (validates it). *)
let receive obj idx v = write obj idx v

let copy_flat ~src ~dst flat =
  (match (src.data, dst.data) with
  | Fdata a, Fdata b -> b.(flat) <- a.(flat)
  | Idata a, Idata b -> b.(flat) <- a.(flat)
  | Bdata a, Bdata b -> b.(flat) <- a.(flat)
  | _ -> elt_mismatch dst);
  Bytes.set dst.valid flat '\001'

(* Change layout; validity is reset to ownership under the new layout
   (stale non-owned copies are invalidated; a moving remap then copies
   each moved element in with [copy_flat]). *)
let set_layout ~nprocs obj (layout : Layout.t) =
  obj.layout <- layout;
  obj.owned <- Layout.owned_one layout ~nprocs obj.owner_proc;
  Bytes.fill obj.valid 0 obj.size '\000';
  mark_initial_validity obj

(* Row-major, so the flat index is a counter.  [idx] is one array
   updated in place: a callee that keeps it must copy it. *)
let iter_elements obj f =
  let r = rank obj in
  if obj.size > 0 then begin
    let idx = Array.map fst obj.bounds in
    let flat = ref 0 in
    let rec walk d =
      if d = r then begin
        f idx !flat;
        incr flat
      end
      else
        let lo, hi = obj.bounds.(d) in
        for x = lo to hi do
          idx.(d) <- x;
          walk (d + 1)
        done
    in
    walk 0
  end
