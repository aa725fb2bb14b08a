(** Generic iterative dataflow over {!Cfg}, worklist-driven.

    Facts form a join-semilattice; [solve] computes the least fixed
    point above bottom of a forward or backward problem.  The worklist
    visits the pending node first in flow order (program order, reversed
    for backward problems) and holds each node at most once.  [join]
    must be idempotent with [bottom] as its identity: the solver skips a
    join with a physically equal fact and takes the first predecessor's
    fact as it is.  [transfer] is called once per visit, so a client
    computes what it needs of each node before [solve], not in it. *)

type direction = Forward | Backward

type work = { mutable nodes : int; mutable visits : int }
(** CFG nodes solved over and [transfer] calls, summed over the solves
    of one client: [visits / nodes] is the solver's cost per node. *)

val new_work : unit -> work

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
    visits : int;  (** calls of [transfer] *)
  }

  val solve :
    direction:direction ->
    init:L.t ->
    transfer:(int -> Cfg.node -> L.t -> L.t) ->
    Cfg.t ->
    result

  val count : work -> result -> unit
  (** Add one solve's nodes and visits to [work]. *)
end
