(** Abstract syntax for mini-Fortran D.

    The subset covers everything exercised by the paper: program units
    with formal parameters, typed scalar/array declarations, PARAMETER
    constants, the Fortran D placement statements (DECOMPOSITION, and the
    executable ALIGN / DISTRIBUTE), DO loops, block IF, assignments,
    CALL, RETURN, and PRINT. *)

type dtype = Real | Integer | Logical

val implicit_type : string -> dtype
(** The type of an undeclared scalar: INTEGER when its name starts with
    [i]-[n], REAL otherwise (Fortran's default).  The one statement of
    the rule; sema, the interpreters and the verifier all ask here. *)

type binop =
  | Add | Sub | Mul | Div | Pow
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or

type unop = Neg | Not

type expr =
  | Int_const of int
  | Real_const of float
  | Logical_const of bool
  | Var of string
      (** scalar reference, or whole-array actual argument *)
  | Ref of string * expr list
      (** array element reference (also the parse of [f(args)] before
          {!Sema} distinguishes intrinsics) *)
  | Bin of binop * expr * expr
  | Un of unop * expr
  | Funcall of string * expr list
      (** intrinsic function application (introduced by {!Sema}) *)

type dist_kind =
  | Block
  | Cyclic
  | Block_cyclic of int
  | Star  (** ":" — dimension not distributed *)

(** One target-dimension subscript of [ALIGN A(i,j) WITH D(j,i+1)]:
    either a (0-based) source dimension plus constant offset, or a
    constant. *)
type align_sub = Align_dim of int * int | Align_const of int

type dim = { dlo : expr; dhi : expr }
(** A declared dimension [dlo:dhi]; [dlo] defaults to 1. *)

type decl =
  | Dcl_type of dtype * (string * dim list) list
  | Dcl_param of (string * expr) list
  | Dcl_decomposition of (string * dim list) list
  | Dcl_common of string * string list
      (** [COMMON /block/ names]: storage shared program-wide.  Every
          unit using a block must declare it identically (checked). *)

type stmt = { sid : int; loc : Fd_support.Loc.t; kind : stmt_kind }
(** Statement ids are unique within a parse and increase in textual
    order (outer statements before their bodies). *)

and stmt_kind =
  | Assign of expr * expr
      (** lhs is [Var] (scalar) or [Ref] (array element) *)
  | Do of do_stmt
  | If of if_stmt
  | Call of string * expr list
  | Align of { array : string; target : string; subs : align_sub list }
  | Distribute of { decomp : string; dists : dist_kind list }
      (** [decomp] names a DECOMPOSITION or an array *)
  | Return
  | Print of expr list

and do_stmt = {
  var : string;
  lo : expr;
  hi : expr;
  step : expr option;
  body : stmt list;
}

and if_stmt = { cond : expr; then_ : stmt list; else_ : stmt list }

type unit_kind = Main | Subroutine

type punit = {
  uname : string;
  ukind : unit_kind;
  formals : string list;
  decls : decl list;
  body : stmt list;
  uloc : Fd_support.Loc.t;
}

type program = punit list

val iter_stmts : (stmt -> unit) -> stmt list -> unit
(** Preorder traversal of every statement, descending into DO/IF bodies. *)

val iter_exprs_expr : (expr -> unit) -> expr -> unit
(** Preorder traversal of an expression tree (visits the root too). *)

val iter_exprs_stmt : (expr -> unit) -> stmt -> unit
(** Visit the top-level expressions of one statement (no recursion into
    compound bodies; combine with {!iter_stmts} for a full sweep). *)

val map_stmts : (stmt -> stmt) -> stmt list -> stmt list
(** Rebuild a statement tree; [f] is applied before descending. *)
