(* What a compiled procedure exports to its (not yet compiled) callers.
   Compilation proceeds in reverse topological order, so when a caller is
   compiled the exports of all its callees are available (paper Section
   5); delayed instantiation lives here. *)

open Fd_support
open Fd_analysis

module SS = Set.Make (String)

(* A section dimension expressed over the procedure's formal scalars, so
   callers can translate it. *)
type odim =
  | Oc_const of int
  | Oc_formal of Affine.t             (* single index, affine in formal scalars *)
  | Oc_range of Affine.t * Affine.t   (* contiguous range, affine bounds *)
  | Oc_full of int * int              (* whole declared extent *)

(* Delayed communication for a nonlocal reference in this procedure whose
   instantiation moved past the procedure boundary. *)
type pending =
  | P_shift of {
      ps_array : string;          (* formal array *)
      ps_dim : int;               (* distributed dimension *)
      ps_need : Lanes.family;       (* per-processor needed indices *)
      ps_other : odim list;       (* the read's non-distributed subscripts *)
      ps_write_other : odim list option;
          (* the partitioned write's non-distributed subscripts, for the
             caller's cross-iteration disjointness test *)
    }
  | P_invariant of {
      pi_array : string;          (* formal array *)
      pi_dim : int;               (* distributed dimension *)
      pi_index : Affine.t;        (* loop-invariant distributed index, over formals *)
      pi_other : odim list;
    }

(* The computation-partition constraint of the whole procedure. *)
type constraint_ =
  | C_none
      (* procedure partitions internally (or does replicated work);
         callers invoke it unguarded on every processor *)
  | C_owner of {
      co_array : string;   (* formal array *)
      co_dim : int;        (* distributed dimension *)
      co_index : Affine.t; (* over formal scalars *)
    }
      (* every distributed access touches this single owner: callers
         guard the call and broadcast scalar results *)

type t = {
  ex_proc : string;
  ex_constraint : constraint_;
  ex_comms : pending list;
  ex_before : (string * Decomp.t) list;  (* remap formal before the call *)
  ex_after : (string * Decomp.t) list;   (* restore formal after the call *)
  ex_use : SS.t;   (* formals referenced under their inherited decomposition *)
  ex_kill : SS.t;  (* formals always redistributed on entry *)
  ex_mod_scalars : SS.t;  (* formal scalars modified (need post-call broadcast
                             when the call is owner-guarded) *)
  ex_value_kill : SS.t;   (* formal arrays fully overwritten before any read *)
}

let empty proc = {
  ex_proc = proc;
  ex_constraint = C_none;
  ex_comms = [];
  ex_before = [];
  ex_after = [];
  ex_use = SS.empty;
  ex_kill = SS.empty;
  ex_mod_scalars = SS.empty;
  ex_value_kill = SS.empty;
}

let pp_odim ppf = function
  | Oc_const c -> Fmt.int ppf c
  | Oc_formal a -> Affine.pp ppf a
  | Oc_range (a, b) -> Fmt.pf ppf "%a:%a" Affine.pp a Affine.pp b
  | Oc_full (lo, hi) -> Fmt.pf ppf "%d:%d(full)" lo hi

let pp_pending ppf = function
  | P_shift { ps_array; ps_dim; ps_other; _ } ->
    Fmt.pf ppf "shift(%s dim %d other [%a])" ps_array (ps_dim + 1)
      Fmt.(list ~sep:(any ";") pp_odim)
      ps_other
  | P_invariant { pi_array; pi_dim; pi_index; _ } ->
    Fmt.pf ppf "invariant(%s dim %d index %a)" pi_array (pi_dim + 1) Affine.pp pi_index

let pp ppf t =
  Fmt.pf ppf "@[<v>export %s:@ constraint: %s@ comms: %a@ before: %s@ after: %s@ use/kill: {%s}/{%s} mod-scalars {%s} value-kill {%s}@]"
    t.ex_proc
    (match t.ex_constraint with
    | C_none -> "none"
    | C_owner { co_array; co_dim; co_index } ->
      Fmt.str "owner(%s dim %d = %a)" co_array (co_dim + 1) Affine.pp co_index)
    Fmt.(list ~sep:(any ", ") pp_pending)
    t.ex_comms
    (String.concat "," (List.map (fun (v, d) -> v ^ Decomp.to_string d) t.ex_before))
    (String.concat "," (List.map (fun (v, d) -> v ^ Decomp.to_string d) t.ex_after))
    (String.concat "," (SS.elements t.ex_use))
    (String.concat "," (SS.elements t.ex_kill))
    (String.concat "," (SS.elements t.ex_mod_scalars))
    (String.concat "," (SS.elements t.ex_value_kill))

(* Every field is named in the patterns below, none behind [_], so a
   field added later does not compile until it is digested too.  Sets go
   in as their sorted elements: equal [SS.t] values can differ in tree
   shape, and [Iset.of_intervals] leaves sets over 256 members
   ungrouped, so equal [Iset.t] values can differ in triplets.  The rest
   is plain data, marshalled without sharing so that equal values give
   equal bytes. *)
let digest
    { ex_proc; ex_constraint; ex_comms; ex_before; ex_after; ex_use; ex_kill;
      ex_mod_scalars; ex_value_kill } =
  let pending = function
    | P_shift { ps_array; ps_dim; ps_need; ps_other; ps_write_other } ->
      `Shift
        ( ps_array, ps_dim, Array.of_list (List.map Iset.intervals (Lanes.to_list ps_need)),
          ps_other, ps_write_other )
    | P_invariant { pi_array; pi_dim; pi_index; pi_other } ->
      `Invariant (pi_array, pi_dim, pi_index, pi_other)
  in
  let sets = List.map SS.elements [ ex_use; ex_kill; ex_mod_scalars; ex_value_kill ] in
  let v = (ex_proc, ex_constraint, List.map pending ex_comms, ex_before, ex_after, sets) in
  Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))
