(** Overlap analysis (paper Section 5.6, Figure 13): constant subscript
    offsets per array dimension, propagated bottom-up through
    formal/actual bindings, *estimate* the maximal overlap regions; the
    *actual* need is the shifts codegen sent messages for
    ({!Codegen.shift}), propagated the same way.  The estimate is a
    superset of the actual (property-tested); experiment E7 reports
    both. *)

type offsets = { neg : int; pos : int }
(** widths below / above the local block *)

type row = {
  ov_proc : string;
  ov_array : string;
  ov_dim : int;  (** 1-based for display *)
  ov_estimated : offsets;
  ov_actual : offsets;
}

val analyze : Codegen.compiled -> row list
(** The rows of the compiled program: every procedure of its cloned
    ACG, with the actual need at the compiled P. *)

val pp_row : Format.formatter -> row -> unit
