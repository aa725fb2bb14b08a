(** The resolved evaluator shared by both interpreters.

    A program is resolved once: each name a program unit mentions maps to
    a frame slot — a formal, a local, a COMMON binding copied in when the
    frame is made, or an implicitly typed scalar — or, in source
    programs, to a PARAMETER constant folded into the code.  Expressions
    compile once to {!typed} closures over a per-processor {!env}: int,
    float or bool where the type is static, boxed otherwise.  {!Interp}
    (node programs) and {!Seq_interp} (source programs) add only their
    statement forms; the node-only intrinsics plug in through
    {!scope.hook}.

    Bit-identity rules: subexpressions are evaluated left to right, the
    target of an assignment after its right-hand side, and every flop
    and mem-op is charged at a fixed point of the evaluation, so the
    counters and the sequence of additions to [pending] do not depend on
    how the code was compiled. *)

open Fd_frontend

exception Return_signal

type binding = Bscalar of Value.t ref | Barray of Storage.array_obj

type clock = { mutable pending : float; flop_cost : float; mem_cost : float }
(** Compute time not yet ticked and the per-operation costs it grows
    by; an all-float record, so [pending] is stored unboxed. *)

type env = {
  proc : int;
  nprocs : int;
  strict : bool;  (** strict validity on element reads *)
  config : Config.t;
  stats : Stats.t;  (** [flops] and [mem_ops] count here *)
  clock : clock;
  mutable frame : binding array;  (** the executing unit's slots *)
  mutable globals : binding array;  (** COMMON slots *)
}
(** One processor's run-time state; compiled code holds none. *)

type code = env -> Value.t

type typed =
  | Int of (env -> int)
  | Float of (env -> float)
  | Bool of (env -> bool)
  | Boxed of code  (** the type is known only at run time *)
(** A compiled expression.  Static types: integer constants and
    PARAMETERs, INTEGER local and COMMON scalars, elements of INTEGER
    arrays, and int arithmetic other than [**] are [Int]; real constants,
    elements of REAL arrays and arithmetic with a float operand are
    [Float]; comparisons and logical operators are [Bool].  Formal,
    REAL and LOGICAL scalars are [Boxed].  Each form computes what the
    boxed {!Value} operation computes, errors included. *)

val env : proc:int -> nprocs:int -> strict:bool -> config:Config.t -> stats:Stats.t -> env
(** Costs come from [config]; storage is allocated as processor [proc]
    of [nprocs]. *)

val mem : env -> unit
(** Charge one mem-op. *)

(** {1 Frame layouts} *)

type frame_layout

val declared : frame_layout -> string -> bool

type unit_code = { u_layout : frame_layout; u_arity : int; mutable u_body : env -> unit }

val unit_code :
  formals:string list -> arrays:Node.array_decl list -> scalars:(string * Ast.dtype) list ->
  is_common:(string -> bool) -> unit_code
(** A program unit whose frame binds its formals, then each array and
    scalar that is neither a formal nor COMMON; a formal named in
    [arrays] is read with that element type.  Names first mentioned in
    its code get slots as they are compiled.  The interpreter sets
    [u_body] once every unit of the program exists. *)

val globals : arrays:Node.array_decl list -> scalars:(string * Ast.dtype) list -> frame_layout
(** The COMMON storage of a program. *)

type scope = {
  unit : unit_code;  (** the unit being compiled *)
  globals : frame_layout;  (** COMMON *)
  units : (string, unit_code) Hashtbl.t;  (** call targets *)
  params : string -> int option;  (** PARAMETER constants *)
  hook : scope -> string -> Ast.expr list -> typed option;
      (** extra intrinsics, tried first; [expr] charges their flop *)
}

(** {1 Compilation} *)

val expr : scope -> Ast.expr -> code
val int_expr : scope -> Ast.expr -> env -> int
val bool_expr : scope -> Ast.expr -> env -> bool
(** Views of an expression's one {!typed} compile, coercing as
    {!Value.to_int} and {!Value.to_bool}. *)

val scalar_cell : scope -> string -> env -> Value.t ref
val array_obj : scope -> string -> env -> Storage.array_obj

val block : (env -> unit) list -> env -> unit

val store : Value.t ref -> Value.t -> unit
(** Write a scalar cell as assignment does: an INTEGER or REAL cell
    converts the value to its type, a LOGICAL one takes it as it is.
    Every scalar write converts this way, so a local or COMMON scalar
    keeps its type. *)

val assign : scope -> Ast.expr -> Ast.expr -> env -> unit
(** The right-hand side, then the target's subscripts; an array store
    converts to the element type. *)

val do_loop :
  scope -> var:string -> lo:Ast.expr -> hi:Ast.expr -> step:Ast.expr option ->
  (env -> unit) -> env -> unit
(** The loop variable is written with {!store}. *)

val call : scope -> string -> Ast.expr list -> env -> unit
(** Whole arrays and scalar variables pass by reference, other
    expressions by value. *)

(** {1 Running} *)

val run_main : env -> globals:frame_layout -> unit_code -> (string, binding) Hashtbl.t
(** Allocate the processor's COMMON storage, run the unit in a fresh
    frame, and return that frame by name, COMMON included. *)

val lookup_array : scope -> env -> string -> Storage.array_obj
(** Run-time lookup of an array by name in the current frame. *)
