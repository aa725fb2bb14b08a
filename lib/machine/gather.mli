(** Reassembly of distributed arrays after a simulated run, and
    comparison against the sequential reference execution. *)

type mismatch = {
  m_array : string;
  m_index : int array;
  m_expected : Value.t;
  m_actual : Value.t;
}

val gather_array :
  nprocs:int -> Interp.frame array -> string -> Storage.array_obj option
(** Authoritative (owner's) value of every element, as a replicated
    array. *)

val compare_results :
  nprocs:int ->
  Seq_interp.result ->
  Interp.frame array ->
  mismatch list
(** Empty list = verified; REAL elements agree to a relative 1e-9. *)

val pp_mismatch : Format.formatter -> mismatch -> unit
