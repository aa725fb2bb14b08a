(** Affine forms over named integer variables: [sum_i c_i * v_i + k].

    The expression-to-affine conversion folds PARAMETER constants through
    the symbol table, so distribution math downstream sees concrete
    coefficients. *)

type t

val const : int -> t
val var : ?coeff:int -> string -> t

val add : t -> t -> t
val sub : t -> t -> t
val scale : int -> t -> t

val is_const : t -> bool
val constant : t -> int
(** The constant term. *)

val const_value : t -> int option
(** [Some k] iff the form has no variables. *)

val coeff_of : string -> t -> int
val vars : t -> string list
(** Variables with nonzero coefficients, sorted. *)

val equal : t -> t -> bool

val drop_var : string -> t -> t
(** Remove one variable's term (the "residue" used by SIV testing). *)

val of_expr : Fd_frontend.Symtab.t -> Fd_frontend.Ast.expr -> t option
(** [None] when the expression is not affine. *)

val eval : (string -> int option) -> t -> int
(** @raise Invalid_argument on an unbound variable. *)

val to_expr : t -> Fd_frontend.Ast.expr
(** Reconstruct an AST expression (for code generation). *)

val pp : Format.formatter -> t -> unit
