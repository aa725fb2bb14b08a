(** Communication generation: turn per-processor need families into
    guarded send/recv statements (closed-form sections where an affine
    form in [my$p] exists) and one-owner/all-consumer sections into
    broadcasts (instantiation of the delayed RSDs; paper Section 5.4,
    Figure 11). *)

open Fd_support
open Fd_frontend
open Fd_machine

type other_dim =
  | Od_point of Ast.expr             (** single index expression *)
  | Od_range of Ast.expr * Ast.expr  (** contiguous index range *)
  | Od_full of int * int             (** whole declared extent *)

val assemble_section :
  rank:int -> dim:int -> Ast.expr * Ast.expr * Ast.expr -> other_dim list ->
  Node.section
(** Insert the distributed dimension's triplet among the others. *)

val guarded :
  ?loc:Fd_support.Loc.t -> Ast.expr option -> Node.nstmt list -> Node.nstmt list

val owner_expr : nprocs:int -> Layout.t -> Ast.expr -> Ast.expr
(** Owner arithmetic for an index under a layout (block: division with
    clamp; cyclic: mod). *)

val owner_guard : nprocs:int -> Layout.t -> Ast.expr -> Ast.expr
(** [my$p == owner_expr ...]. *)

val emit_bcast_section :
  ?loc:Loc.t -> nprocs:int -> site:int -> array:string -> layout:Layout.t ->
  dim:int -> index:Ast.expr -> other_dims:other_dim list -> unit -> Node.nstmt

val emit_bcast_scalar : ?loc:Loc.t -> site:int -> root:Ast.expr -> string -> Node.nstmt

val emit_section_comm_multi :
  ?loc:Loc.t -> nprocs:int -> tag:int -> layout:Layout.t -> dim:int ->
  parts:(string * Lanes.family * other_dim list) list ->
  unit -> Node.nstmt list
(** The messages that bring each processor its need, for one or more
    (array, need, other_dims) parts aggregated into one message per
    processor pair (paper Fig. 11).  Sends before receives (sends are
    asynchronous), grouped by sender-receiver offset so common shift
    patterns compile to one guarded statement each; exact per-processor
    fallback otherwise.  Empty when every processor's need is local.
    The transfers of each offset are a closed-form family
    ({!Layout.transfers}), so a shift costs O(1) set operations at any P
    when each processor owns one block. *)
