(** Source locations (file, 1-based line, 1-based column). *)

type t = { file : string; line : int; col : int }

val none : t
(** Placeholder location for synthesized nodes. *)

val make : file:string -> line:int -> col:int -> t

val pp : Format.formatter -> t -> unit
