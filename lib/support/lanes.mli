(** Values of the processor id, piecewise over pid intervals: sorted runs
    [(lo, hi, seg)], each a per-run constant or [a*pid + b].  The code
    generator's per-processor bounds (integer constants) and the
    verifier's lane values share this type; [~const] makes a constant of
    an integer. *)

type 'c seg = Sconst of 'c | Saff of { a : int; b : int }

type 'c t = (int * int * 'c seg) list

val fdiv : int -> int -> int
(** Floor division. *)

val cdiv : int -> int -> int
(** Ceiling division. *)

val saff : const:(int -> 'c) -> int -> int -> 'c seg
(** [a*pid + b], a constant when [a = 0]. *)

val seg_at : const:(int -> 'c) -> 'c seg -> int -> 'c

val norm : const:(int -> 'c) -> merge:('c -> 'c -> bool) -> 'c t -> 'c t
(** Drop empty runs, fold singleton affine runs to constants, and merge
    neighbours whose constants [merge] accepts or whose affine forms are
    equal. *)

val at : const:(int -> 'c) -> 'c t -> int -> 'c
(** The value at a pid the cover holds. *)

val align : 'a t -> 'b t -> (int * int * 'a seg * 'b seg) list
(** Common refinement of two covers of the same pids. *)

val align_many : 'c t list -> (int * int * 'c seg list) list
(** Common refinement of several covers of the same pids. *)

val clip : 'c t -> (int * int) list -> 'c t
(** The runs clipped to sorted disjoint pid intervals. *)

val restrict : 'c t -> int * int -> 'c t
(** The runs clipped to one pid interval. *)

(** {1 Families of index sets} *)

(** One index set per processor: pid [p] in [\[lo, hi\]] of a run holds
    [Iset.shift (d * (p - lo)) s], so each triplet bound is affine in the
    pid; the pids of no run hold the empty set.  Runs are sorted,
    disjoint and nonempty. *)
type family = { nprocs : int; d : int; runs : (int * int * Iset.t) list }

val empty : nprocs:int -> family

val set_at : family -> int -> Iset.t
(** One processor's set. *)

val cursor : family -> int -> Iset.t
(** {!set_at}, for calls in ascending pid order. *)

val to_list : family -> Iset.t list
(** Every processor's set, in pid order. *)

val shift : int -> family -> family
(** Every set translated by an index offset. *)

val equal : family -> family -> bool
(** Equal runs holding equal sets. *)

val support : family -> (int * int) list
(** The pids holding a nonempty set, as sorted disjoint intervals. *)

val pids : int -> int -> int list
(** [pids a b] is [a; ...; b]. *)

val tabulate :
  nprocs:int -> irregular:int list -> shift:(int -> 'a -> 'a) -> same:('a -> 'a -> bool) ->
  is_empty:('a -> bool) -> (int -> 'a) -> (int * int * 'a) list
(** Runs [(lo, hi, v lo)] of [p -> v p] over [\[0, nprocs - 1\]], where
    pid [p] of a run holds [shift (p - lo) (v lo)]: the caller
    guarantees [v p = shift 1 (v (p - 1))] wherever neither [p] nor
    [p - 1] is in [irregular].  [v] is called in ascending pid order,
    once per stretch; runs of empty values are dropped. *)

val tabulate_sets : nprocs:int -> d:int -> irregular:int list -> (int -> Iset.t) -> family
(** {!tabulate} for a family of sets translating by [d] per pid. *)
