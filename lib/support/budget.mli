(** Resource budgets with graceful degradation.

    A {!t} declares optional caps on abstract work ([steps]),
    communication [events], and [wall] seconds; {!start} turns it into
    mutable per-run {!state}. Hot loops charge work via {!tick_step} /
    {!tick_event}; once any cap trips, the state latches a
    human-readable exhaustion reason ({!exhausted}) and the consumer is
    expected to stop and return a {e partial} result, not abort.

    Wall time is sampled only every ~1024 ticks, so budget checks cost
    a couple of integer operations in the common case. *)

type t = { steps : int option; events : int option; wall : float option }

val make : ?steps:int -> ?events:int -> ?wall:float -> unit -> t

type state

val start : t -> state
(** Begin a run: snapshots the wall-clock deadline. *)

val tick_step : state -> int -> bool
(** Charge [n] work units; [false] once the budget is exhausted. *)

val tick_event : state -> int -> bool
(** Charge [n] communication events; [false] once exhausted. *)

val exhausted : state -> string option
(** The latched exhaustion reason, e.g. ["step budget exhausted (500000)"]. *)
