(** Dynamic data decomposition (paper Section 6).

    Remapping operations are materialized as [remap$] pseudo-statements
    in procedure bodies (around call sites from the callees' exported
    DecompBefore/DecompAfter sets, and at local DISTRIBUTE statements),
    then optimized:

    - live decompositions: CFG-based dead-remap elimination (Fig. 16b)
      and redundant-remap removal (coalescing);
    - loop-invariant decompositions: hoisting leading/trailing remaps
      out of loops (Fig. 16c);
    - array kills: a physical remap whose array's values are dead (fully
      overwritten before any read) becomes mark-only (Fig. 16d). *)

open Fd_frontend

module SS : Set.S with type elt = string
module DM : Map.S with type key = string and type 'a t = 'a Map.Make(String).t

type remap = { rm_array : string; rm_decomp : Decomp.t; rm_move : bool }

val pseudo_sid_base : int
(** Every pseudo-statement id is above it, and every parsed one below. *)

type sids
(** The pseudo-statement ids one compile has issued. *)

val new_sids : unit -> sids
(** Numbering from [pseudo_sid_base + 1]. *)

val last_sid : sids -> int
(** The last id issued; [pseudo_sid_base] before the first. *)

val remap_stmt : sids -> remap -> Ast.stmt
(** Encode as a [remap$] pseudo-call with the next pseudo-statement
    id. *)

val as_remap : Ast.stmt -> remap option
val is_remap_of : string -> Ast.stmt -> bool

val dead_remap_elim :
  work:Fd_analysis.Dataflow.work ->
  call_touches:(string -> Ast.expr list -> SS.t) ->
  live_out:SS.t ->
  Ast.stmt list ->
  Ast.stmt list * int
(** Backward liveness over the CFG from [live_out], the arrays whose
    decomposition is used after the procedure returns, of the arrays
    some remap names; returns the count removed.  The solve is counted
    in [work]. *)

val redundant_remap_elim :
  work:Fd_analysis.Dataflow.work -> initial:Decomp.t DM.t -> Ast.stmt list -> Ast.stmt list * int
(** Forward decomposition tracking; removes remaps to the current
    layout.  The solve is counted in [work]. *)

val first_touch_kills :
  symtab:Symtab.t ->
  value_killer:(string -> Ast.expr list -> string -> bool) ->
  string ->
  Ast.stmt list ->
  bool
(** Is the first statement to touch the array one that kills its
    values: one that, run at all, stores every element and reads none
    (counting only stores no IF, RETURN or partial loop can skip), or
    a call for which
    [value_killer callee actuals array] holds?  Any call passing the
    array as an actual touches it. *)

val optimize :
  Options.remap_level ->
  work:Fd_analysis.Dataflow.work ->
  call_touches:(string -> Ast.expr list -> SS.t) ->
  live_out:SS.t ->
  initial:Decomp.t DM.t ->
  symtab:Symtab.t ->
  value_killer:(string -> Ast.expr list -> string -> bool) ->
  Ast.stmt list ->
  Ast.stmt list
(** The passes of the level, in order.  A body without a remap is
    returned as it is (physically), at every level. *)
