(** Regular section descriptors.

    A [box] is one RSD in the paper's sense: a triplet per array
    dimension.  A region is a finite union of boxes of equal rank.
    Intersection and difference are exact (difference uses slab
    decomposition); [union] keeps boxes disjoint so that [count] is
    exact. *)

open Fd_support

type t

val empty : int -> t
(** [empty rank] *)

val of_triplets : Triplet.t list -> t

val mem : int array -> t -> bool
val count : t -> int

val inter : t -> t -> t
val diff : t -> t -> t
val union : t -> t -> t

val equal : t -> t -> bool
val subset : t -> t -> bool
