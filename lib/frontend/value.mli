(** Scalar values and their arithmetic with Fortran-style coercions: the
    one scalar semantics of the simulator, sema's constant folding and
    the verifier's lanes.  Every operation raises
    {!Fd_support.Diag.Compile_error} where the program fails at run
    time: a logical operand of arithmetic, an integer division or mod by
    zero. *)

type t = Vint of int | Vreal of float | Vbool of bool

val zero_of : Ast.dtype -> t

val of_bool : bool -> t
(** [Vbool b], without allocating. *)

val to_float : t -> float
val to_int : t -> int
val to_bool : t -> bool

(* Integer when both operands are, real otherwise. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val pow : t -> t -> t

val ipow : int -> int -> int
(** Integer [**]: wraps as repeated multiplication does; a negative
    exponent is [1 / x ** |n|] in integer arithmetic, so [0 ** -1]
    divides by zero. *)

val neg : t -> t
(** A subtraction from integer zero: [-(0.0)] is [0.0]. *)

val arith : Ast.binop -> t -> t -> t
(** [add], [sub], [mul], [div] or [pow]. *)

val compare_num : t -> t -> int
val equal : t -> t -> bool

val test : Ast.binop -> int -> bool
(** The test a relational operator makes of a [compare] result. *)

val relation : Ast.binop -> t -> t -> bool
(** A relational operator; [.eq.] and [.ne.] also compare logicals. *)

val stored : into:t -> t -> t
(** [stored ~into v]: what a scalar cell holding [into] holds once [v]
    is stored in it.  An INTEGER or REAL cell converts [v] to its type; a
    LOGICAL one takes [v] as it is. *)

(* The arithmetic intrinsics, which {!Intrinsic} lists. *)

val integer : t -> t
(** INT: [Vint (to_int v)]. *)

val real : t -> t
(** FLOAT: [Vreal (to_float v)]. *)

val abs : t -> t
val modulo : t -> t -> t

val max : t -> t -> t
val min : t -> t -> t
(** The first operand on a tie; real unless both are integers. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
