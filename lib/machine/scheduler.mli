(** Virtual-time scheduler for the processor ensemble.

    Each logical processor runs as a delimited computation (OCaml 5
    effect handlers).  A processor runs until it finishes or blocks on a
    receive / collective; sends are asynchronous (infinite buffering, the
    iPSC model) with arrival time [sender_clock + alpha + beta*bytes]; a
    blocking receive advances the receiver to [max(own, arrival)].
    Collectives synchronize all P processors at a site.  Scheduling is
    deterministic.

    The network is the iPSC/860's: reliable and in order, one FIFO
    queue per (src, dest, tag) channel. *)

open Fd_support

type blocked_on =
  | On_recv of { src : int; tag : int; loc : Loc.t }
      (** [loc] is the Fortran D source statement whose communication the
          processor is blocked on ({!Loc.none} when synthesized) *)
  | On_collective of { site : int; label : string; loc : Loc.t }

type waiter = { w_proc : int; w_on : blocked_on; w_clock : float }
(** One blocked processor: what it waits on and its virtual time. *)

type wait_for = {
  waiting : waiter list;   (** every blocked processor, sorted by id *)
  cycle : int list;        (** processors forming a wait cycle, if any *)
}

type error =
  | Deadlock of wait_for
      (** blocked processors at quiescence, including mismatched
          collective sites *)
  | Invalid_read of { proc : int; array : string; index : int array;
                      clock : float }
      (** strict-validity violation: a read of a non-owned,
          never-received element — missing communication *)
  | Runtime_error of string

exception Sim_error of error

val error_to_string : error -> string

val run : Config.t -> Node.program -> Stats.t * Interp.frame array
(** Simulate to completion.
    @raise Sim_error on deadlock (including mismatched collective
    sites) or runtime faults (including strict-validity violations). *)

type partial = {
  p_stats : Stats.t;  (** statistics accumulated so far *)
  p_frames : Interp.frame array option;
      (** final per-processor frames; [None] when the budget tripped
          before every processor finished *)
  p_exhausted : string option;  (** the budget-exhaustion reason, if any *)
}

val run_partial : ?budget:Budget.t -> Config.t -> Node.program -> partial
(** Like {!run}, but under an optional resource {!Budget.t}: when a step,
    event, or wall cap trips, the simulation stops gracefully and
    returns the statistics accumulated so far with [p_exhausted] set —
    a partial result, never an exception. *)
