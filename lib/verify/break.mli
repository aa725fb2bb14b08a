(** [!break: <directive>] fault pragmas for negative examples, applied
    to the compiled node program so the verifier and the simulator see
    the same broken program. *)

val scan : string -> string list
(** The directives of a source text, in order. *)

val apply : Fd_machine.Node.program -> string list -> Fd_machine.Node.program * string list
(** Apply every directive; also returns those that did not apply
    (unknown name or no matching statement). *)
