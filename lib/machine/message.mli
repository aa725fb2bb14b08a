(** Typed section messages exchanged by node programs. *)

type t = {
  src : int;
  dest : int;
  tag : int;            (** static communication-site id *)
  seq : int;
      (** monotone per-(src, dest, tag) sequence number stamped by the
          scheduler's network layer (senders pass 0); receivers dedup
          duplicates and reassemble in seq order *)
  parts : (string * (int array * Fd_frontend.Value.t) list) list;
      (** per array, its (global index vector, value) elements; one
          message may aggregate sections of several arrays (paper Fig. 11
          aggregation) *)
  bytes : int;
}

type chan = {
  mutable send_seq : int;
  mutable deliver_seq : int;
  pending : (int, t * float) Hashtbl.t;  (** seq -> (message, arrival time) *)
}
(** A per-(src, dest, tag) channel: senders stamp [send_seq]; receivers
    deliver strictly in seq order from the reassembly buffer [pending]
    (retransmitted messages can arrive out of order). *)

val channel : ('k, chan) Hashtbl.t -> 'k -> chan
(** The channel under a key, created empty on first use. *)

val take_deliverable : chan -> (t * float) option
(** Remove and return the next in-order message, if it has arrived. *)
