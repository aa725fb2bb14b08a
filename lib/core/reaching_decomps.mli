(** Reaching decompositions (paper Section 5.2, Figure 6).

    Local phase: forward dataflow over each procedure's CFG computing, at
    every point, the set of decompositions reaching each array
    (ALIGN/DISTRIBUTE act as definitions; formal arrays start at the >
    "inherited" placeholder).  Interprocedural phase: one top-down pass in
    topological order computes Reaching(P) by translating call-site facts
    (actuals to formals), then expands the local placeholders. *)

open Fd_frontend
open Fd_callgraph

module SM : Map.S with type key = string and type 'a t = 'a Map.Make(String).t

type fact = Decomp.reaching SM.t

val get_reaching : fact -> string -> Decomp.reaching

type local_result
(** The solved local problem for one procedure (with inherited
    decompositions seeded after interprocedural propagation). *)

val aligns_of : local_result -> (string * Ast.align_sub list) SM.t

val fact_before : local_result -> int -> fact
(** Fact at the program point before the statement with the given id. *)

val fact_at_exit : local_result -> fact

type t

val compute : sink:Fd_support.Diag.sink -> Acg.t -> t

val work : t -> Fd_analysis.Dataflow.work
(** Nodes and visits of the local solves, one per procedure. *)

val reaching_of : t -> string -> fact
(** Reaching(P): decompositions inherited by each formal array. *)

val local_of : t -> string -> local_result

val unique_at : t -> string -> int -> string -> Decomp.t option
(** The single decomposition of an array at a point; errors when several
    reach (cloning should have made it unique). *)

val maybe_distributed : t -> string -> int -> string -> bool
(** Tolerant variant used by run-time resolution: may the array be
    non-replicated here? *)

val pp_proc_reaching : Format.formatter -> t * string -> unit
