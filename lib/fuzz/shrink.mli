(** Line-based shrinking of failing fuzz cases (greedy delta
    debugging). *)

val shrink : keep:(string -> bool) -> string -> string
(** [shrink ~keep src] deletes chunks of lines, halving chunk sizes
    down to single lines, while [keep] (the "same failure still
    reproduces" predicate) holds; returns the smallest kept variant.
    Evaluates [keep] at most 150 times. *)
