(** Collection of array references with their loop context, and
    concretization into regular sections — the "local RSD analysis"
    feeding interprocedural side effects, dependence testing,
    communication analysis, and overlap estimation. *)

open Fd_frontend

type loop_ctx = {
  lvar : string;
  llo : Affine.t option;
  lhi : Affine.t option;
  lstep : int;
  lsid : int;  (** statement id of the DO *)
}

type ref_info = {
  array : string;
  sid : int;            (** id of the enclosing statement *)
  is_write : bool;
  subs : Affine.t option list;  (** per dimension; None = non-affine *)
  loops : loop_ctx list;        (** enclosing loops, outermost first *)
}

val loop_ctx : Symtab.t -> Ast.stmt -> Ast.do_stmt -> loop_ctx
(** The loop context of a DO statement; a step that is not a constant
    counts as 1. *)

val collect : Symtab.t -> Ast.stmt list -> ref_info list
(** Every array element reference in the statement list, in textual
    order (a store's own subscripts also appear as reads). *)

val region_of_ref : declared:(int * int) list -> ref_info -> Region.t
(** Concretize one reference over the declared bounds; a sound
    over-approximation (whole extents) where subscripts are non-affine or
    ranges unknown. *)

val written_region :
  declared:(int * int) list -> array:string -> ref_info list -> Region.t
