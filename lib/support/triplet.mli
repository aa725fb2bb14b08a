(** Integer triplets [lo:hi:step] (Fortran 90 section notation).

    Normal form: [step >= 1] and [hi] is the last member, or the
    distinguished {!empty} value.  All operations return normal forms. *)

type t = private { lo : int; hi : int; step : int }

val empty : t
val is_empty : t -> bool

val make : lo:int -> hi:int -> step:int -> t
(** Normalizing constructor.  @raise Invalid_argument if [step < 1]. *)

val range : int -> int -> t
(** [range lo hi] is [make ~lo ~hi ~step:1]. *)

val singleton : int -> t
val count : t -> int
val mem : int -> t -> bool
val lo : t -> int
val hi : t -> int
val step : t -> int
val shift : int -> t -> t

val inter : t -> t -> t
(** Exact intersection (CRT over the two strides). *)

val subset : t -> t -> bool

val diff : t -> t -> t list
(** [diff a b] is the set difference, exact when [b] is contiguous or the
    operands are small; otherwise a sound over-approximation of [a \ b]
    (it may retain members of [b]). *)

val to_list : t -> int list

val of_sorted_list : int list -> t list
(** Group a strictly increasing list into maximal triplets. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
