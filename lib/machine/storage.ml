(* Per-processor array storage, in pages.

   An array's row-major elements are cut into fixed pages of [page_len]
   elements, the last one ending with the array.  A page costs nothing
   until the processor first writes, receives or is copied an element of
   it: an untouched page reads zero, and its elements are valid exactly
   where the processor owns them.  A materialized page holds the values
   and one validity byte per element; an element is valid on a processor
   iff the processor owns it under the current layout, has written it, or
   has received it in a message.  In strict mode a read of an invalid
   element aborts the run — this catches compiler communication bugs
   even when stale values happen to agree.

   Ownership is [Layout.owned_pattern] arithmetic on the distributed
   coordinate, whose stride and extent are kept per array: no owned set
   is built or probed.  A processor holds the pages it owns or was sent,
   not a copy of every array's full extent. *)

open Fd_support
open Fd_frontend

(* [min] and [max] on ints without the polymorphic compare *)
let imin (a : int) b = if a < b then a else b
let imax (a : int) b = if a > b then a else b

let page_bits = 6
let page_len = 1 lsl page_bits
let page_mask = page_len - 1

type data =
  | Fdata of float array
  | Idata of int array
  | Bdata of bool array

(* Which flat indices the processor owns, by [Layout.owned_pattern]
   arithmetic: the distributed dimension's stride (0 when every element
   is owned) and extent, and the owned coordinates [first + k * period +
   j], [0 <= j < block], counted from its lower bound. *)
type ownership = { stride : int; ext : int; first : int; block : int; period : int }

type array_obj = {
  name : string;
  elt : Ast.dtype;
  bounds : (int * int) array;
  strides : int array;
  size : int;
  fpages : float array array;  (* the page table of a REAL array, else [||] *)
  ipages : int array array;   (* of an INTEGER array *)
  bpages : bool array array;  (* of a LOGICAL array *)
  valid_pages : Bytes.t array;  (* [Bytes.empty] where untouched *)
  mutable layout : Layout.t;
  mutable own : ownership;
  owner_proc : int;           (* which processor's memory this lives in *)
  nprocs : int;
  stats : Stats.t;            (* where materialized page bytes are counted *)
}

exception Invalid_read of { array : string; index : int array; proc : int }

exception Runtime_error of string

let runtime_error fmt = Format.kasprintf (fun m -> raise (Runtime_error m)) fmt

let rank obj = Array.length obj.bounds

let npages size = (size + page_mask) lsr page_bits

(* Elements of page [pg]: [page_len], or fewer for the last page. *)
let page_size obj pg = imin page_len (obj.size - (pg lsl page_bits))

let all_owned = { stride = 0; ext = 1; first = 0; block = 1; period = 1 }

let ownership ~proc ~nprocs bounds strides (layout : Layout.t) =
  match (layout.Layout.dist_dim, layout.Layout.dist) with
  | None, _ | _, Layout.Replicated -> all_owned
  | Some d, _ ->
    let lo, hi = bounds.(d) in
    let first, block, period = Layout.owned_pattern layout ~nprocs proc in
    { stride = strides.(d); ext = imax 1 (hi - lo + 1); first; block; period }

let owns obj flat =
  let o = obj.own in
  o.stride = 0
  ||
  let c = flat / o.stride mod o.ext in
  c >= o.first && (c - o.first) mod o.period < o.block

(* [f a e] for each run [a, e) of flat indices in [lo, hi) that the
   processor owns, in increasing order: one run per owned block of
   coordinates and combination of the outer dimensions' indices. *)
let iter_owned obj ~lo ~hi f =
  let o = obj.own in
  if o.stride = 0 then (if lo < hi then f lo hi)
  else if lo < hi then begin
    let s = o.stride in
    let span = o.ext * s in
    let base = ref (lo / span * span) in
    while !base < hi do
      let b = !base in
      let c = if b >= lo then 0 else (lo - b) / s in
      let blk = ref (if c <= o.first then o.first else c - ((c - o.first) mod o.period)) in
      while !blk < o.ext && b + (!blk * s) < hi do
        let a = imax lo (b + (!blk * s)) and e = imin hi (b + (imin o.ext (!blk + o.block) * s)) in
        if a < e then f a e;
        blk := !blk + o.period
      done;
      base := b + span
    done
  end

let alloc ~stats ~proc ~nprocs name elt (layout : Layout.t) : array_obj =
  let bounds = Array.of_list layout.Layout.bounds in
  let rank = Array.length bounds in
  let extents = Array.map (fun (lo, hi) -> max 0 (hi - lo + 1)) bounds in
  let strides = Array.make rank 1 in
  for d = rank - 2 downto 0 do
    strides.(d) <- strides.(d + 1) * extents.(d + 1)
  done;
  let size = if rank = 0 then 1 else strides.(0) * extents.(0) in
  let n = npages size in
  let table t = if elt = t then n else 0 in
  { name; elt; bounds; strides; size; fpages = Array.make (table Ast.Real) [||];
    ipages = Array.make (table Ast.Integer) [||]; bpages = Array.make (table Ast.Logical) [||];
    valid_pages = Array.make n Bytes.empty;
    layout; own = ownership ~proc ~nprocs bounds strides layout; owner_proc = proc; nprocs; stats }

(* Materialize the untouched page [pg] (zero values, validity from
   ownership) and return its validity bytes. *)
let materialize obj pg =
  let n = page_size obj pg and base = pg lsl page_bits in
  let v = Bytes.make n '\000' in
  iter_owned obj ~lo:base ~hi:(base + n) (fun a e -> Bytes.fill v (a - base) (e - a) '\001');
  (match obj.elt with
  | Ast.Real -> obj.fpages.(pg) <- Array.make n 0.0
  | Ast.Integer -> obj.ipages.(pg) <- Array.make n 0
  | Ast.Logical -> obj.bpages.(pg) <- Array.make n false);
  obj.valid_pages.(pg) <- v;
  let st = obj.stats in
  st.Stats.storage_bytes <- st.Stats.storage_bytes + (n * ((Sys.word_size / 8) + 1));
  v

let rank_error obj n =
  runtime_error "array %s: rank %d referenced with %d subscripts" obj.name (rank obj) n

(* Offset of subscript [x] in 0-based dimension [d], bounds-checked. *)
let dim_offset obj d x =
  let lo, hi = obj.bounds.(d) in
  if x < lo || x > hi then
    runtime_error "array %s: subscript %d out of bounds %d:%d in dimension %d" obj.name x lo hi
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

(* The subscripts of an in-bounds flat index. *)
let index_of obj flat =
  Array.mapi (fun d (lo, hi) -> lo + (flat / obj.strides.(d) mod (hi - lo + 1))) obj.bounds

let invalid obj flat =
  raise (Invalid_read { array = obj.name; index = index_of obj flat; proc = obj.owner_proc })

let check_valid ~strict obj flat =
  if strict then begin
    let v = obj.valid_pages.(flat lsr page_bits) in
    if Bytes.length v = 0 then (if not (owns obj flat) then invalid obj flat)
    else if Bytes.get v (flat land page_mask) = '\000' then invalid obj flat
  end

let get_raw obj flat =
  let pg = flat lsr page_bits and off = flat land page_mask in
  match obj.elt with
  | Ast.Real -> let p = obj.fpages.(pg) in Value.Vreal (if Array.length p = 0 then 0.0 else p.(off))
  | Ast.Integer -> let p = obj.ipages.(pg) in Value.Vint (if Array.length p = 0 then 0 else p.(off))
  | Ast.Logical -> let p = obj.bpages.(pg) in Value.Vbool (Array.length p > 0 && p.(off))

let read_flat ~strict obj flat =
  check_valid ~strict obj flat;
  get_raw obj flat

let elt_mismatch obj =
  Diag.internal ~pass:"simulate" "array %s read with a type it does not hold" obj.name

(* The typed reads look the page up once: an untouched page reads zero
   and is valid where owned.  A page index outside the table means an
   array of another type (its table is empty) or a flat index out of
   range. *)
let read_int ~strict obj flat =
  let a = obj.ipages and pg = flat lsr page_bits in
  if pg < Array.length a then begin
    let p = Array.unsafe_get a pg in
    if Array.length p = 0 then begin
      if strict && not (owns obj flat) then invalid obj flat;
      0
    end
    else
      let off = flat land page_mask in
      let n = p.(off) in
      if strict && Bytes.unsafe_get (Array.unsafe_get obj.valid_pages pg) off = '\000' then
        invalid obj flat;
      n
  end
  else if obj.elt = Ast.Integer then invalid_arg "index out of bounds"
  else (check_valid ~strict obj flat; elt_mismatch obj)

let read_float ~strict obj flat =
  let a = obj.fpages and pg = flat lsr page_bits in
  if pg < Array.length a then begin
    let p = Array.unsafe_get a pg in
    if Array.length p = 0 then begin
      if strict && not (owns obj flat) then invalid obj flat;
      0.0
    end
    else
      let off = flat land page_mask in
      let x = p.(off) in
      if strict && Bytes.unsafe_get (Array.unsafe_get obj.valid_pages pg) off = '\000' then
        invalid obj flat;
      x
  end
  else if obj.elt = Ast.Real then invalid_arg "index out of bounds"
  else (check_valid ~strict obj flat; elt_mismatch obj)

let read ~strict obj idx = read_flat ~strict obj (flat_index obj idx)

(* Each write materializes its page, stores, then validates; the store
   bounds-checks the offset the validity byte then uses.  Each tests for
   an untouched page itself: a helper call cost about a quarter of a
   write. *)
let write_flat obj flat (x : Value.t) =
  let pg = flat lsr page_bits and off = flat land page_mask in
  let v = obj.valid_pages.(pg) in
  let valid = if Bytes.length v = 0 then materialize obj pg else v in
  (match obj.elt with
  | Ast.Real -> (Array.unsafe_get obj.fpages pg).(off) <- Value.to_float x
  | Ast.Integer -> (Array.unsafe_get obj.ipages pg).(off) <- Value.to_int x
  | Ast.Logical -> (Array.unsafe_get obj.bpages pg).(off) <- Value.to_bool x);
  Bytes.unsafe_set valid off '\001'

(* [write_flat] of a [Vint n] or a [Vreal x], unboxed. *)
let write_int obj flat n =
  let pg = flat lsr page_bits and off = flat land page_mask in
  let v = obj.valid_pages.(pg) in
  let valid = if Bytes.length v = 0 then materialize obj pg else v in
  (match obj.elt with
  | Ast.Integer -> (Array.unsafe_get obj.ipages pg).(off) <- n
  | Ast.Real -> (Array.unsafe_get obj.fpages pg).(off) <- float_of_int n
  | Ast.Logical -> (Array.unsafe_get obj.bpages pg).(off) <- Value.to_bool (Value.Vint n));
  Bytes.unsafe_set valid off '\001'

let write_float obj flat x =
  let pg = flat lsr page_bits and off = flat land page_mask in
  let v = obj.valid_pages.(pg) in
  let valid = if Bytes.length v = 0 then materialize obj pg else v in
  (match obj.elt with
  | Ast.Real -> (Array.unsafe_get obj.fpages pg).(off) <- x
  | Ast.Integer -> (Array.unsafe_get obj.ipages pg).(off) <- int_of_float x
  | Ast.Logical -> (Array.unsafe_get obj.bpages pg).(off) <- Value.to_bool (Value.Vreal x));
  Bytes.unsafe_set valid off '\001'

let write obj idx v = write_flat obj (flat_index obj idx) v

(* Store a received element (validates it). *)
let receive obj idx v = write obj idx v

(* The elements [flat .. flat + len - 1] of [src] into [dst], page piece
   by page piece: one check that the range is in both arrays (of one
   size, so of one page structure), then unchecked typed accesses. *)
let copy_range ~src ~dst flat len =
  if flat < 0 || len < 0 || flat + len > dst.size || src.size <> dst.size then
    invalid_arg "Storage.copy_range";
  let at = ref flat and stop = flat + len in
  while !at < stop do
    let pg = !at lsr page_bits and off = !at land page_mask in
    let n = imin (stop - !at) (page_len - off) in
    let v = dst.valid_pages.(pg) in
    let valid = if Bytes.length v = 0 then materialize dst pg else v in
    (match (src.elt, dst.elt) with
    | Ast.Real, Ast.Real ->
      let s = Array.unsafe_get src.fpages pg and d = Array.unsafe_get dst.fpages pg in
      if Array.length s = 0 then Array.fill d off n 0.0
      else for k = off to off + n - 1 do Array.unsafe_set d k (Array.unsafe_get s k) done
    | Ast.Integer, Ast.Integer ->
      let s = Array.unsafe_get src.ipages pg and d = Array.unsafe_get dst.ipages pg in
      if Array.length s = 0 then Array.fill d off n 0
      else for k = off to off + n - 1 do Array.unsafe_set d k (Array.unsafe_get s k) done
    | Ast.Logical, Ast.Logical ->
      let s = Array.unsafe_get src.bpages pg and d = Array.unsafe_get dst.bpages pg in
      if Array.length s = 0 then Array.fill d off n false
      else for k = off to off + n - 1 do Array.unsafe_set d k (Array.unsafe_get s k) done
    | _ -> elt_mismatch dst);
    Bytes.fill valid off n '\001';
    at := !at + n
  done

(* Change layout; validity is reset to ownership under the new layout
   (stale non-owned copies are invalidated; a moving remap then copies
   each moved element in with [copy_range]).  Values stay; untouched pages
   stay untouched. *)
let set_layout obj (layout : Layout.t) =
  obj.layout <- layout;
  obj.own <- ownership ~proc:obj.owner_proc ~nprocs:obj.nprocs obj.bounds obj.strides layout;
  Array.iter (fun v -> Bytes.fill v 0 (Bytes.length v) '\000') obj.valid_pages;
  iter_owned obj ~lo:0 ~hi:obj.size (fun a e ->
      let a = ref a in
      while !a < e do
        let pg = !a lsr page_bits in
        let stop = imin e ((pg + 1) lsl page_bits) in
        let v = obj.valid_pages.(pg) in
        if Bytes.length v > 0 then Bytes.fill v (!a land page_mask) (stop - !a) '\001';
        a := stop
      done)

(* The full-extent views: untouched pages read as zeros and as
   ownership. *)
let data obj =
  let dense zero pages =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun pg p -> if Array.length p = 0 then Array.make (page_size obj pg) zero else p)
            pages))
  in
  match obj.elt with
  | Ast.Real -> Fdata (dense 0.0 obj.fpages)
  | Ast.Integer -> Idata (dense 0 obj.ipages)
  | Ast.Logical -> Bdata (dense false obj.bpages)

let valid obj =
  let all = Bytes.make obj.size '\000' in
  iter_owned obj ~lo:0 ~hi:obj.size (fun a e -> Bytes.fill all a (e - a) '\001');
  Array.iteri (fun pg v -> Bytes.blit v 0 all (pg lsl page_bits) (Bytes.length v)) obj.valid_pages;
  all

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
