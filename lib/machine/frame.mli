(** The frame layout of a program unit: which slot each name the unit
    declares or mentions denotes, and what kind of slot it is.

    The simulator's evaluator ({!Eval}, for both interpreters) and the
    verifier's abstract walk read the same layout, so they reason about
    the same variables.  The rules are Fortran 77's: formals come first
    (a repeated formal binds its last actual), then the unit's arrays,
    then its scalars that are neither formals nor COMMON, the first
    declaration of a name winning; a COMMON name or an undeclared scalar
    gets its slot where the unit first mentions it.  A layout holds no
    value: each reader maps the kinds to its own initial bindings. *)

open Fd_frontend

type kind =
  | Formal of int * Ast.dtype option
      (** the actual's position; a formal array's element type *)
  | Common of int  (** a slot of the program's COMMON layout *)
  | Local_array of Node.array_decl
  | Local_scalar of Ast.dtype

type t

val make :
  formals:string list -> arrays:Node.array_decl list -> scalars:(string * Ast.dtype) list ->
  is_common:(string -> bool) -> t
(** A unit's declared slots; a formal named in [arrays] has that
    element type. *)

val common : arrays:Node.array_decl list -> scalars:(string * Ast.dtype) list -> t
(** The COMMON storage of a program: its arrays and scalars as local
    slots. *)

val find : t -> string -> int option

val slot : t -> common:t -> string -> int
(** The name's slot, given one on first mention: a [Common] slot when
    [common] has the name, else an implicitly typed {!Local_scalar}
    ({!Ast.implicit_type}). *)

val kind : t -> int -> kind
val size : t -> int

val fold : (string -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** Over every name and its slot. *)
