(** Compiler options: strategy and optimization levels (the paper's
    comparison axes; see DESIGN.md section 4). *)

type strategy =
  | Interproc
      (** full interprocedural compilation with delayed instantiation *)
  | Immediate
      (** intraprocedural: decompositions known, nothing delayed across
          procedure boundaries (paper Figure 12) *)
  | Runtime_resolution
      (** ownership and communication resolved per element at run time
          (paper Figure 3) *)

type remap_level =
  | Remap_none   (** naive DecompBefore/After placement (Figure 16a) *)
  | Remap_live   (** + dead-remap elimination and coalescing (16b) *)
  | Remap_hoist  (** + loop-invariant decomposition hoisting (16c) *)
  | Remap_kill   (** + array kills: remap dead arrays in place (16d) *)

type t = {
  nprocs : int;
  strategy : strategy;
  remap_level : remap_level;
  use_collectives : bool;
      (** recognize one-owner/all-consumer reads as broadcasts *)
  aggregate_messages : bool;
      (** merge same-destination transfers of different arrays into one
          message (paper Fig. 11 aggregation) *)
}

val default : t

val strategy_name : strategy -> string
val remap_level_name : remap_level -> string
