(** Small list utilities shared across the compiler. *)

val init_opt : int -> (int -> 'a option) -> 'a list
(** [init_opt n f] keeps the [Some] results of [f 0 .. f (n-1)], in order. *)

val dedup : equal:('a -> 'a -> bool) -> 'a list -> 'a list
(** Keep the first occurrence of each element, preserving order. *)

val group_by :
  key:('a -> 'k) -> equal_key:('k -> 'k -> bool) -> 'a list -> ('k * 'a list) list
(** Stable grouping in first-seen key order. *)

val assoc_update :
  equal:('k -> 'k -> bool) -> 'k -> ('v option -> 'v) -> ('k * 'v) list -> ('k * 'v) list
(** Update the binding of [k] (passing its current value), appending if absent. *)

val all_some : 'a option list -> 'a list option
(** Every value, when none is missing. *)

val sum : int list -> int

val take : int -> 'a list -> 'a list
