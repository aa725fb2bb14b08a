(** The printer of per-processor families.

    Loop partitions, shift needs and send sets are families of index
    sets, one per processor ({!Fd_support.Lanes.family}): runs over pid
    intervals whose sets translate by a fixed step per pid, built from
    owner arithmetic by {!Fd_machine.Layout.partition} and its kin.  The
    printer turns a family into [a*my$p + b], min/max-clipped linear forms, a
    [tab$(my$p, ...)] table where no affine form exists, and guards
    (DESIGN.md section 6). *)

open Fd_support
open Fd_frontend

val myp : Ast.expr
(** The [my$p] variable. *)

val expr_of_lanes : ?mask:(int * int) list -> int Lanes.t -> Ast.expr
(** The expression computing each pid's value over the pids of [mask]
    (all by default): linear, then min/max-clipped linear, then a table
    of every pid's value. *)

val guard_of_mask : nprocs:int -> (int * int) list -> Ast.expr option
(** Expression true exactly on the pids of the intervals; [None] when
    that is every pid. *)

type fitted_triplet = {
  f_lo : Ast.expr;
  f_hi : Ast.expr;
  f_step : Ast.expr;
  f_guard : Ast.expr option;
}

val fits : Lanes.family -> bool
(** Some set is nonempty and every nonempty set is one triplet. *)

val fit : Lanes.family -> fitted_triplet option
(** Each processor's triplet as (lo, hi, step) expressions plus a guard
    restricting to the processors with nonempty sets; [None] unless
    {!fits}. *)
