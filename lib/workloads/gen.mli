(** Seeded random mini-Fortran-D program generator for differential
    testing: generated programs stay within the documented language but
    mix distributions, shift widths, procedure boundaries, guards, and
    dynamic redistribution.  Compiled executions verify element-by-element
    against sequential interpretation. *)

val random_source : ?commons:bool -> Random.State.t -> string
(** A 1-D program.  With [commons], the arrays live in a COMMON block
    and the operation procedures take no arguments. *)

val random_source2d : Random.State.t -> string
(** A 2-D program: shift sweeps over row- or column-block arrays. *)
