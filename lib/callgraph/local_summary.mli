(** Edit-time local summaries (ParaScope phase 1, paper Section 4):
    everything interprocedurally relevant about one procedure, collected
    once after an edit, plus content digests for recompilation tests. *)

open Fd_frontend

type t = {
  proc : string;
  formals : string list;
  array_decls : (string * (int * int) list) list;
  call_sigs : (string * int) list;  (** callee name and arity, in order *)
  local_mod : Side_effects.S.t;
  local_ref : Side_effects.S.t;
  decomp_stmts : int;   (** number of ALIGN/DISTRIBUTE statements *)
  loop_depth : int;     (** maximum loop nesting depth *)
  source_digest : string;
}

val of_unit : Sema.checked_unit -> t

val interface_digest : t -> string
(** Digest of the caller-visible interface (formals, shapes, call
    signatures, side effects, decomposition behaviour). *)

val pp : Format.formatter -> t -> unit
