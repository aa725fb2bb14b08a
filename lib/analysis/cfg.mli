(** Statement-level control-flow graph for one procedure.

    Nodes are [Entry], [Exit], and one node per statement.  A DO
    statement's node is its loop header: header -> first body node,
    header -> follow (zero-trip path), last body node -> header (back
    edge).  RETURN flows to [Exit]. *)

open Fd_frontend

type node = Entry | Exit | Stmt of Ast.stmt

type t

val entry : int
(** Index of the entry node (always 0). *)

val exit_ : int
(** Index of the exit node (always 1). *)

val build : Ast.stmt list -> t

val node : t -> int -> node
val succs : t -> int -> int list
val preds : t -> int -> int list
val length : t -> int

val node_of_sid : t -> int -> int option
(** Node index of the statement with the given id. *)
