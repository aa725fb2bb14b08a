(** Runtime scalar values with Fortran-style coercions. *)

open Fd_frontend

type t = Vint of int | Vreal of float | Vbool of bool

val zero_of : Ast.dtype -> t

val of_bool : bool -> t
(** [Vbool b], without allocating. *)

val to_float : t -> float
val to_int : t -> int
val to_bool : t -> bool

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val pow : t -> t -> t

val compare_num : t -> t -> int
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string
