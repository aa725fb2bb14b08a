(** Data layouts: how one array dimension is partitioned across the P
    logical processors.  At most one dimension is distributed (a 1-D
    logical processor arrangement; see DESIGN.md). *)

open Fd_support

type dist1 =
  | Block of int         (** block size *)
  | Cyclic
  | Block_cyclic of int
  | Replicated

type t = {
  bounds : (int * int) list;  (** declared global bounds per dimension *)
  dist_dim : int option;      (** 0-based distributed dimension *)
  dist : dist1;
}

val replicated : (int * int) list -> t
val rank : t -> int
val extent : int * int -> int
val dim_bounds : t -> int -> int * int

val block_size_for : nprocs:int -> int * int -> int
(** Default block size: ceil(extent / P). *)

val owned : t -> nprocs:int -> Iset.t array
(** Per-processor owned global indices in the distributed dimension (the
    full extent everywhere when replicated).  The sets partition the
    extent (property-tested). *)

val owned_one : t -> nprocs:int -> int -> Iset.t
(** One processor's owned set: [owned_one t ~nprocs p = (owned t ~nprocs).(p)]
    without the O(P) array. *)

val owned_pattern : t -> nprocs:int -> int -> int * int * int
(** [owned_pattern t ~nprocs p = (first, block, period)]: [p]'s owned
    indices in the distributed dimension are [lo + first + k * period + j]
    for [k >= 0] and [0 <= j < block], up to the upper bound — the set
    {!owned_one} builds, as arithmetic ([period] is at least the extent
    when there is one block). *)

val owner_of : t -> nprocs:int -> int -> int
(** Owner of a global index in the distributed dimension. *)

val exact_owner : t -> nprocs:int -> int -> int
(** [exact_owner t ~nprocs g] is the processor [p] with
    [Iset.mem g (owned_one t ~nprocs p)], [-1] when there is none (outside
    the bounds, or past the last block of an under-sized Block) and
    [nprocs] when every processor qualifies (replicated).  Unlike
    {!owner_of} it does not clamp, and it allocates nothing. *)

val owners_of_interval : t -> nprocs:int -> int -> int -> Iset.t
(** [owners_of_interval t ~nprocs lo hi] is exactly the set of processors
    [q] whose {!owned_one} set meets [lo, hi], computed in O(1) set
    operations by owner arithmetic (block: one range; cyclic and
    block-cyclic: at most two wrapped ranges; replicated: everyone). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
