(** Finite integer sets as canonical sorted lists of disjoint triplets.

    All operations are exact.  Sets are index/iteration sets bounded by
    array extents and — since the compressed verifier domain — processor
    masks bounded by P.  Every operation sweeps the sets' maximal
    intervals and never enumerates a contiguous run, so {0..65535} costs
    O(#intervals).  Strided sets come from array extents (cyclic
    layouts) and from masks alike ({0,2..7} is [\[0:2:2; 3:7\]]); their
    canonical triplets are the greedy grouping of
    {!Triplet.of_sorted_list}, computed straight from the intervals. *)

type t = Triplet.t list

val empty : t
val is_empty : t -> bool
val of_triplet : Triplet.t -> t
val of_triplets : Triplet.t list -> t
val of_list : int list -> t
val singleton : int -> t
val range : int -> int -> t
val mem : int -> t -> bool
val count : t -> int
val to_list : t -> int list
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val equal : t -> t -> bool
val subset : t -> t -> bool
val disjoint : t -> t -> bool
val shift : int -> t -> t

val complement : lo:int -> hi:int -> t -> t
(** [complement ~lo ~hi t] is the members of [lo, hi] not in [t]. *)

val split : t -> t -> t * t
(** [split a t] is [(inter a t, diff a t)], each in the form
    {!of_intervals} gives. *)

val triplets : t -> Triplet.t list
(** The canonical triplet decomposition. *)

val intervals : t -> (int * int) list
(** Sorted disjoint maximal [(lo, hi)] intervals covering the set
    (strided triplets are expanded). *)

val of_intervals : (int * int) list -> t
(** Build a set from (possibly unsorted, overlapping) inclusive
    intervals; pairs with [lo > hi] are ignored.  A set of at most 256
    members is grouped into triplets; a larger one stays a list of
    step-1 intervals. *)

val fold_intervals : ('a -> int -> int -> 'a) -> 'a -> t -> 'a
(** Fold over {!intervals} without building the intermediate list:
    canonical triplets are visited in order and adjacent ones coalesce
    on the fly. *)

val min_elt : t -> int option

val pp : Format.formatter -> t -> unit
val to_string : t -> string
