(** Closed-form reconstruction: turn concrete per-processor integer data
    into node-program expressions over [my$p].

    The compiler computes index/iteration sets exactly per processor
    (DESIGN.md section 6); code generation fits them back into symbolic
    form — [a*my$p + b], optionally min/max-clipped — and falls back to a
    compile-time lookup table [tab$(my$p, c0, c1, ...)] otherwise. *)

open Fd_support
open Fd_frontend

val myp : Ast.expr
(** The [my$p] variable. *)

val expr_of_values : ?mask:bool array -> int array -> Ast.expr
(** Linear fit, then min/max-clipped linear, then table. *)

val guard_of_mask : bool array -> Ast.expr option
(** Expression true exactly on the masked processors; [None] when all
    participate. *)

type fitted_triplet = {
  f_lo : Ast.expr;
  f_hi : Ast.expr;
  f_step : Ast.expr;
  f_guard : Ast.expr option;
}

val fit_procset_opt : Iset.t array -> fitted_triplet option
(** Fit a per-processor family of single-triplet sets; [None] when all
    are empty or some set needs several triplets. *)
