(** Data-dependence testing over affine subscripts (ZIV, strong-SIV and
    weak-zero SIV, conservative elsewhere), specialized to what
    Fortran D communication analysis needs: the loop levels at which a
    *true* (flow) dependence from a write to a read may be carried.

    Levels are 1-based from the outermost common loop.  The deepest
    carried level is the message-vectorization level: communication for
    the read must stay inside that loop and may be hoisted out of all
    deeper loops. *)

type result = {
  carried : int list;       (** levels at which the dependence may be carried *)
  loop_independent : bool;
}

val true_dep : Sections.ref_info -> Sections.ref_info -> result
(** Flow dependence from a write to a read of the same array.  Each
    level is tested with the loops above it at equal iterations; exact
    distances count iterations of the loop's step and are clipped by
    trip counts, and one that is not a whole number of iterations is
    independent; unknown subscripts yield conservative (possible)
    dependences.  [loop_independent] holds when the write may reach the
    read in the same iterations of every common loop and does not follow
    it textually. *)
