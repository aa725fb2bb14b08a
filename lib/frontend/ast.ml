(* Abstract syntax for mini-Fortran D.

   The subset covers everything exercised by the paper: program units with
   formal parameters, typed scalar/array declarations, PARAMETER constants,
   the Fortran D placement statements (DECOMPOSITION / ALIGN / DISTRIBUTE,
   the latter two executable), DO loops, block IF, assignments, CALL,
   RETURN, and PRINT (for demos). *)

open Fd_support

type dtype = Real | Integer | Logical

(* Fortran's default: a name starting i-n is INTEGER, any other REAL. *)
let implicit_type name =
  if String.length name > 0 && name.[0] >= 'i' && name.[0] <= 'n' then Integer else Real

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
      (* scalar reference, or whole-array actual argument *)
  | Ref of string * expr list
      (* array element reference *)
  | Bin of binop * expr * expr
  | Un of unop * expr
  | Funcall of string * expr list
      (* intrinsic function application *)

type dist_kind =
  | Block
  | Cyclic
  | Block_cyclic of int
  | Star  (* ":" = dimension not distributed *)

(* ALIGN A(i,j) WITH D(j,i+1): for each target dimension, either a source
   dimension (0-based) plus constant offset, or a constant subscript. *)
type align_sub = Align_dim of int * int | Align_const of int

type dim = { dlo : expr; dhi : expr }

type decl =
  | Dcl_type of dtype * (string * dim list) list
  | Dcl_param of (string * expr) list
  | Dcl_decomposition of (string * dim list) list
  | Dcl_common of string * string list
      (* COMMON /block/ names: storage shared program-wide *)

type stmt = { sid : int; loc : Loc.t; kind : stmt_kind }

and stmt_kind =
  | Assign of expr * expr
      (* lhs is Var (scalar) or Ref (array element) *)
  | Do of do_stmt
  | If of if_stmt
  | Call of string * expr list
  | Align of { array : string; target : string; subs : align_sub list }
  | Distribute of { decomp : string; dists : dist_kind list }
  | Return
  | Print of expr list

and do_stmt = { var : string; lo : expr; hi : expr; step : expr option; body : stmt list }

and if_stmt = { cond : expr; then_ : stmt list; else_ : stmt list }

type unit_kind = Main | Subroutine

type punit = {
  uname : string;
  ukind : unit_kind;
  formals : string list;
  decls : decl list;
  body : stmt list;
  uloc : Loc.t;
}

type program = punit list

(* Traversal helpers *)

let rec iter_stmts f stmts =
  List.iter
    (fun s ->
      f s;
      match s.kind with
      | Do d -> iter_stmts f d.body
      | If i ->
        iter_stmts f i.then_;
        iter_stmts f i.else_
      | Assign _ | Call _ | Align _ | Distribute _ | Return | Print _ -> ())
    stmts

let rec iter_exprs_expr f e =
  f e;
  match e with
  | Int_const _ | Real_const _ | Logical_const _ | Var _ -> ()
  | Ref (_, subs) -> List.iter (iter_exprs_expr f) subs
  | Bin (_, a, b) ->
    iter_exprs_expr f a;
    iter_exprs_expr f b
  | Un (_, a) -> iter_exprs_expr f a
  | Funcall (_, args) -> List.iter (iter_exprs_expr f) args

let iter_exprs_stmt f s =
  match s.kind with
  | Assign (lhs, rhs) ->
    iter_exprs_expr f lhs;
    iter_exprs_expr f rhs
  | Do d ->
    iter_exprs_expr f d.lo;
    iter_exprs_expr f d.hi;
    Option.iter (iter_exprs_expr f) d.step
  | If i -> iter_exprs_expr f i.cond
  | Call (_, args) -> List.iter (iter_exprs_expr f) args
  | Print args -> List.iter (iter_exprs_expr f) args
  | Align _ | Distribute _ | Return -> ()

let rec map_stmts f stmts =
  List.map
    (fun s ->
      let s = f s in
      match s.kind with
      | Do d -> { s with kind = Do { d with body = map_stmts f d.body } }
      | If i ->
        { s with
          kind = If { i with then_ = map_stmts f i.then_; else_ = map_stmts f i.else_ } }
      | Assign _ | Call _ | Align _ | Distribute _ | Return | Print _ -> s)
    stmts
