(** Data-dependence testing over affine subscripts (ZIV and strong-SIV,
    conservative "star" directions elsewhere), specialized to what
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
(** Flow dependence from a write to a read of the same array.  Exact
    distances are clipped by trip counts; unknown subscripts yield
    conservative (possible) dependences. *)

val deepest_true_dep_level :
  Sections.ref_info list -> Sections.ref_info -> int option
(** Deepest level at which any write in the list carries a true
    dependence onto [read]; [None] means communication for the read can
    be vectorized out of its whole loop nest. *)
