(** Run-time resolution (paper Figure 3): every processor executes the
    full iteration space in lockstep; ownership of each reference is
    computed at run time (through the [owner$] intrinsic, which consults
    the array's current layout), and each nonlocal access becomes its own
    element message.  This is both the no-interprocedural-information
    baseline strategy and the sound fallback the optimizing code
    generators use for statements outside their recognized patterns. *)

open Fd_frontend
open Fd_machine

type ctx = {
  nprocs : int;
  symtab : Symtab.t;
  is_dist : string -> bool;
      (** may the array be distributed at this point? *)
  fresh_tag : unit -> int;
  fresh_tmp : unit -> string;
}

val compile_stmt : ctx -> Ast.stmt -> Node.nstmt list
(** Whole statement trees; IF conditions with distributed reads get
    element broadcasts first, loops run full bounds everywhere. *)
