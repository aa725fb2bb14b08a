(** The intrinsic functions, one row each: sema types a call from its
    row, and the simulator ({!Fd_machine.Eval}) and the verifier
    ({!Fd_verify.Absint}) apply its meaning.  The node-only intrinsics
    ([myproc], [nprocs], [tab$], [owner$]) are not rows: they depend on
    the processor or on array layouts. *)

type arity = Exactly of int | At_least of int

type t = {
  name : string;
  arity : arity;
  result : Ast.dtype list -> Ast.dtype;
      (** the call's type from its arguments' types *)
  meaning : Value.t list -> Value.t;
      (** raises {!Fd_support.Diag.Compile_error} where the call fails
          at run time *)
}

val table : t list

val find : string -> t option

val accepts : t -> int -> bool
(** The row takes that many arguments. *)

val lookup : string -> int -> t option
(** The row of that name that takes that many arguments. *)
