(** Comparison of a simulated run's distributed arrays, read from each
    element's owner, against the sequential reference execution. *)

type mismatch = {
  m_array : string;
  m_index : int array;
  m_expected : Fd_frontend.Value.t;
  m_actual : Fd_frontend.Value.t;
}

val compare_results :
  nprocs:int ->
  Seq_interp.result ->
  Interp.frame array ->
  mismatch list
(** Empty list = verified; REAL elements agree to a relative 1e-9.  Each
    element is compared against its owner's copy, page by page in
    row-major order, in one typed loop per run of one owner within a
    page; an untouched page reads zeros. *)

val pp_mismatch : Format.formatter -> mismatch -> unit
