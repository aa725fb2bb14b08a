(** Generic iterative dataflow over {!Cfg}, worklist-driven.

    Facts form a join-semilattice; [solve] computes the maximal fixed
    point of a forward or backward problem. *)

type direction = Forward | Backward

module type LATTICE = sig
  type t

  val bottom : t
  val join : t -> t -> t
  val equal : t -> t -> bool
end

module Make (L : LATTICE) : sig
  type result = {
    input : L.t array;
        (** fact flowing into each node: at node entry for forward
            problems, at node exit for backward problems *)
    output : L.t array;
        (** [transfer] applied to [input] *)
  }

  val solve :
    direction:direction ->
    init:L.t ->
    transfer:(int -> Cfg.node -> L.t -> L.t) ->
    Cfg.t ->
    result
end
