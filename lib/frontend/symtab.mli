(** Per-procedure symbol tables, built by {!Sema}. *)

type array_info = {
  elt : Ast.dtype;
  dims : (int * int) list;  (** declared bounds, resolved to constants *)
}

type entry =
  | Scalar of Ast.dtype
  | Array of array_info
  | Param of int  (** named integer compile-time constant *)
  | Decomposition of (int * int) list

type t

val create : unit_name:string -> formal_order:string list -> t

val add : t -> string -> entry -> unit
(** @raise Fd_support.Diag.Compile_error on duplicate declarations. *)

val find : t -> string -> entry option
val find_exn : t -> string -> entry

val is_array : t -> string -> bool
val is_decomposition : t -> string -> bool
val array_info : t -> string -> array_info option
val param_value : t -> string -> int option

val fold : t -> (string -> entry -> 'a -> 'a) -> 'a -> 'a

val arrays : t -> (string * array_info) list
(** All declared arrays, sorted by name. *)

val set_common : t -> string -> string -> unit
(** Mark a declared name as a member of a COMMON block. *)

val is_common : t -> string -> bool

val commons : t -> (string * string) list
(** (member, block) pairs, sorted. *)

val rank : t -> string -> int
(** Rank of an array or decomposition; 0 for other entries. *)
