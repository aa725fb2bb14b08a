(** The SPMD node-program IR produced by the Fortran D compiler back ends
    and executed by the simulator.

    Expressions reuse {!Fd_frontend.Ast.expr}; on top of the sequential
    statement forms the IR adds explicit message passing (guarded
    send/recv of array sections, broadcast) and dynamic remapping.  All
    index expressions are in *global* index space; each array carries a
    {!Layout.t} mapping indices to owners (DESIGN.md section 6). *)

open Fd_support
open Fd_frontend

type section = (Ast.expr * Ast.expr * Ast.expr) list
(** Per-dimension (lo, hi, step) in global index space; expressions may
    reference [my$p], loop variables, and node-program scalars. *)

type payload =
  | P_section of string * section
  | P_scalar of string

type nstmt =
  | N_assign of Ast.expr * Ast.expr
  | N_do of { var : string; lo : Ast.expr; hi : Ast.expr; step : Ast.expr option;
              body : nstmt list }
  | N_if of { cond : Ast.expr; then_ : nstmt list; else_ : nstmt list;
              loc : Loc.t }
      (** [loc] is the source IF statement when one exists ([Loc.none]
          for compiler-introduced guards); branch-profile consumers key
          on it *)
  | N_call of string * Ast.expr list
  | N_send of { dest : Ast.expr; parts : (string * section) list; tag : int;
                loc : Loc.t }
      (** one message; [parts] may aggregate sections of several arrays;
          [loc] is the Fortran D source statement the message implements *)
  | N_recv of { src : Ast.expr; tag : int; loc : Loc.t }
      (** the message itself carries the section to store *)
  | N_bcast of { root : Ast.expr; payload : payload; site : int; loc : Loc.t }
      (** collective: all processors must reach the same site *)
  | N_remap of { array : string; new_layout : Layout.t; move : bool; site : int;
                 loc : Loc.t }
      (** collective redistribution; [move = false] marks only (the
          array-kill optimization) *)
  | N_print of Ast.expr list
  | N_return

type array_decl = {
  ad_name : string;
  ad_elt : Ast.dtype;
  ad_layout : Layout.t;  (** initial layout *)
}

type nproc = {
  np_name : string;
  np_formals : string list;
  np_arrays : array_decl list;
  np_scalars : (string * Ast.dtype) list;
  np_body : nstmt list;
}

type program = {
  n_procs : nproc list;
  n_main : string;
  n_nprocs : int;  (** the P the program was compiled for *)
  n_common_arrays : array_decl list;  (** COMMON storage, program-wide *)
  n_common_scalars : (string * Ast.dtype) list;
}

val find_proc : program -> string -> nproc option

val map_exprs : (Ast.expr -> Ast.expr) -> nstmt -> nstmt
(** Rewrite every expression in a statement tree (e.g. PARAMETER
    folding). *)

val pp_nstmt : int -> Format.formatter -> nstmt -> unit
val pp_program : Format.formatter -> program -> unit
