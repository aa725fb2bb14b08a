(** Machine model for the MIMD distributed-memory simulator.

    The default numbers approximate the Intel iPSC/860 the paper's group
    reported against: ~75 us message startup, ~0.4 us/byte, a few
    hundredths of a microsecond per operation.  Times are in seconds. *)

type t = {
  nprocs : int;
  alpha : float;        (** message startup cost *)
  beta : float;         (** per-byte transfer cost *)
  flop : float;         (** per arithmetic-operation cost *)
  mem_op : float;       (** per load/store cost *)
  word_bytes : int;     (** bytes per REAL/INTEGER element *)
  trace : Fd_trace.Trace.t option;
      (** structured event sink ({!Fd_trace.Trace}); [None] disables
          tracing at zero cost (producers emit through one option match) *)
}

val ipsc860 : ?nprocs:int -> unit -> t

val make :
  ?flop:float -> ?mem_op:float -> ?trace:Fd_trace.Trace.t -> nprocs:int -> unit -> t
(** {!ipsc860} with the given overrides. *)

val message_cost : t -> int -> float
(** [alpha + beta * bytes]. *)

val bcast_cost : t -> int -> float
(** One-to-all cost: [ceil (log2 nprocs)] tree stages of one message each. *)

val pp : Format.formatter -> t -> unit
