(** What a compiled procedure exports to its (not yet compiled) callers.
    Compilation proceeds in reverse topological order, so a caller's
    compilation has every callee's export available — this record is
    where delayed instantiation lives (paper Section 5). *)

open Fd_analysis

module SS : Set.S with type elt = string

(** A section dimension expressed over the procedure's formal scalars,
    so callers can translate it. *)
type odim =
  | Oc_const of int
  | Oc_formal of Affine.t
  | Oc_range of Affine.t * Affine.t
  | Oc_full of int * int

(** Delayed communication for a nonlocal reference whose instantiation
    moved past the procedure boundary. *)
type pending =
  | P_shift of {
      ps_array : string;          (** formal array *)
      ps_dim : int;               (** distributed dimension *)
      ps_need : Fd_support.Lanes.family;  (** per-processor needed indices *)
      ps_other : odim list;       (** the read's other subscripts *)
      ps_write_other : odim list option;
          (** the partitioned write's other subscripts, for the caller's
              cross-iteration disjointness test *)
    }
  | P_invariant of {
      pi_array : string;
      pi_dim : int;
      pi_index : Affine.t;  (** loop-invariant distributed index *)
      pi_other : odim list;
    }

(** The whole procedure's computation-partition constraint. *)
type constraint_ =
  | C_none
      (** partitions internally or does replicated work: call unguarded *)
  | C_owner of { co_array : string; co_dim : int; co_index : Affine.t }
      (** every distributed access touches one owner: callers guard the
          call and broadcast scalar results *)

type t = {
  ex_proc : string;
  ex_constraint : constraint_;
  ex_comms : pending list;
  ex_before : (string * Decomp.t) list;
      (** DecompBefore: remap these formals before the call *)
  ex_after : (string * Decomp.t) list;
      (** DecompAfter: restore these formals after the call *)
  ex_use : SS.t;
      (** formals referenced under their inherited decomposition *)
  ex_kill : SS.t;  (** formals always redistributed on entry *)
  ex_mod_scalars : SS.t;
      (** formal scalars modified (broadcast after owner-guarded calls) *)
  ex_value_kill : SS.t;
      (** formal arrays fully overwritten before any read *)
}

val empty : string -> t

val pp : Format.formatter -> t -> unit

val digest : t -> string
(** Hex digest over every field of the record, for recompilation
    analysis: equal records give equal digests, and any change a caller
    could see changes it ({!pp} prints a summary, not all of it). *)
