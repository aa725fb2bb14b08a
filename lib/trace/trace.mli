(** Structured event tracing: a fixed-capacity ring buffer of typed
    events with virtual (machine) or wall-clock (compiler span)
    timestamps.

    Zero cost when off: producers hold a [t option] and emit through one
    option match.  Each ring slot allocates its record when first
    written; after that [emit] mutates the oldest slot in place, and
    once the ring is full the earliest events are overwritten and
    counted in {!dropped}. *)

type kind =
  | Send        (** proc=src, peer=dest, tag, seq, bytes *)
  | Recv        (** proc=receiver, peer=src, tag; [dur] = blocked wait *)
  | Block       (** proc parks on (peer, tag) *)
  | Wake        (** a parked proc is released by an arrival *)
  | Coll_enter  (** proc arrives at collective site=[tag]; [dur] = wait *)
  | Coll_exit   (** proc released from site=[tag]; [bytes] = payload share *)
  | Guard_skip  (** an owner guard evaluated false; body skipped *)
  | Remap       (** remap traffic proc -> peer; [label] = array *)
  | Span        (** compiler pass span: [label] = pass, wall-clock times *)

type ev = {
  mutable at : float;
  mutable kind : kind;
  mutable proc : int;
  mutable peer : int;
  mutable tag : int;
  mutable seq : int;
  mutable bytes : int;
  mutable dur : float;
  mutable label : string;
}

type t

val default_capacity : int

val create : ?capacity:int -> unit -> t
(** A ring holding the newest [capacity] events (default
    {!default_capacity}). *)

val total : t -> int
(** Events ever emitted, including overwritten ones. *)

val length : t -> int
(** Events currently retained ([min total capacity]). *)

val dropped : t -> int
(** Events overwritten because the ring was full. *)

val emit :
  t -> kind:kind -> at:float -> proc:int -> ?peer:int -> ?tag:int -> ?seq:int ->
  ?bytes:int -> ?dur:float -> ?label:string -> unit -> unit

val iter : t -> (ev -> unit) -> unit
(** Chronological iteration over the retained window.  The record handed
    to the callback is the ring's own mutable slot: read, don't retain. *)

val to_list : t -> ev list
(** Chronological copies of the retained events. *)

val fold : t -> 'a -> ('a -> ev -> 'a) -> 'a

val count : t -> kind:kind -> int

val pp_ev : Format.formatter -> ev -> unit
(** One event as one timeline line (no trailing newline). *)

val pp : Format.formatter -> t -> unit
