(** Entry points of the static SPMD communication verifier. *)

type result = {
  findings : Finding.t list;
  visits : int;  (** statements the abstract walk visited *)
  events : int;  (** skeleton events replayed *)
  complete : bool;
      (** the walk covered the whole program (no budget cutoff), so the
          replay verdicts are meaningful *)
}

val check_node :
  ?budget:Fd_support.Budget.t -> nprocs:int -> Fd_machine.Node.program -> result
(** Abstract walk ({!Absint}) plus skeleton replay ({!Skeleton}): the
    static counterpart of running the program under the simulator. *)

val exit_code : strict:bool -> Finding.t list -> int
(** 1 on any error, or on a warning under [strict]; 0 otherwise. *)
