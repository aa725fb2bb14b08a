(** Data decompositions as they reach references: one distribution kind
    per array dimension.  At most one dimension may be distributed (a 1-D
    logical processor arrangement; covers every example in the paper). *)

open Fd_frontend

type t = { kinds : Ast.dist_kind list }

val replicated : int -> t
(** [replicated rank] *)

val of_kinds : Ast.dist_kind list -> t
val is_replicated : t -> bool

val dist_dim : t -> (int * Ast.dist_kind) option
(** The unique distributed dimension (0-based).
    @raise Fd_support.Diag.Compile_error on multi-dimensional
    distributions. *)

val equal : t -> t -> bool

val layout_of :
  t -> bounds:(int * int) list -> nprocs:int -> Fd_machine.Layout.t

val through_align : array_rank:int -> Ast.align_sub list -> t -> t
(** Distribution an aligned array inherits from its target's
    distribution (permutations supported; offsets only shift block
    boundaries and are ignored with a warning). *)

val to_string : t -> string

module Set : Set.S with type elt = t

(** A reaching-decompositions lattice value: a set of decompositions
    plus the paper's > ("inherited from caller") placeholder. *)
type reaching = { decomps : Set.t; top : bool }

val reaching_bottom : reaching
val reaching_top : reaching
val reaching_single : t -> reaching
val reaching_join : reaching -> reaching -> reaching
val reaching_equal : reaching -> reaching -> bool
val pp_reaching : Format.formatter -> reaching -> unit
