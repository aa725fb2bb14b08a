(** Deterministic, seed-driven fault plans for the simulated network.

    A plan describes an adversarial network: per-message drop
    probability (recovered by the scheduler's ack/retransmit protocol),
    duplication, bounded arrival-delay jitter, reordering pressure, and
    per-processor compute slowdown.  Every decision is derived by a
    splitmix64-style hash of [(seed, src, dest, tag, seq)] — no wall
    clock, no mutable generator state — so the same seed yields the same
    fault schedule regardless of event-processing order, and a run's
    {!Stats} are exactly reproducible. *)

type t = {
  seed : int;            (** fault-schedule seed *)
  drop : float;          (** per-transmission-attempt drop probability, [0,1] *)
  dup : float;           (** per-message duplication probability, [0,1] *)
  delay : float;         (** max extra arrival jitter, seconds (uniform) *)
  reorder : float;       (** probability a message is queued behind its
                             successor (one extra message-cost of delay) *)
  slowdown : (int * float) list;
      (** per-processor compute slowdown factors (proc, factor >= 1) *)
  rto : float;           (** initial retransmit timeout, virtual seconds *)
  backoff : float;       (** timeout multiplier per retry (exponential) *)
  max_retries : int;     (** retransmissions before the message is declared
                             lost and the run fails with a structured error *)
  watchdog : float option;
      (** virtual-time limit: any processor clock exceeding it aborts the
          run with {!Scheduler.Watchdog} (livelock -> diagnosable timeout) *)
  tags : int list option;   (** restrict faults to these tags (None = all) *)
}

val make :
  ?drop:float -> ?dup:float -> ?delay:float -> ?reorder:float ->
  ?slowdown:(int * float) list -> ?rto:float -> ?backoff:float ->
  ?max_retries:int -> ?watchdog:float -> ?tags:int list -> seed:int -> unit -> t
(** Defaults: all intensities 0, [rto] = 500us, [backoff] = 2,
    [max_retries] = 8, no watchdog, no tag restriction. *)

val slowdown_for : t -> int -> float
(** Compute slowdown factor for a processor (1.0 when unlisted). *)

type delivery = {
  attempts : int;     (** transmission attempts consumed (>= 1) *)
  lost : bool;        (** every attempt dropped: message never arrives *)
  added_delay : float;
      (** extra arrival latency (retransmit timeouts + jitter + reorder
          penalty), seconds; 0 when [lost] *)
  duplicated : bool;  (** a second copy reaches the receiver *)
  injected : int;     (** fault events this delivery represents *)
}

val deliver :
  t -> msg_cost:float -> src:int -> dest:int -> tag:int -> seq:int -> delivery
(** The (deterministic) fate of one message under the plan's
    ack/retransmit protocol.  Attempt [i] is retransmitted after a
    timeout of [rto * backoff^(i-1)] virtual seconds; [msg_cost] prices
    the reorder penalty. *)
