(* Typed section messages exchanged by node programs. *)

type t = {
  src : int;
  dest : int;
  tag : int;            (* static communication-site id *)
  seq : int;
      (* monotone per-(src, dest, tag) sequence number, stamped by the
         scheduler's network layer; receivers dedup and reassemble in
         seq order.  Senders construct messages with seq = 0. *)
  parts : (string * (int array * Value.t) list) list;
      (* per array, its (global index vector, value) elements; one
         message may aggregate sections of several arrays (paper Fig. 11
         aggregation) *)
  bytes : int;
}

(* Per-(src, dest, tag) channel: the sender side stamps [send_seq]; the
   receiver side delivers strictly in seq order from [pending], which
   holds arrived-but-undelivered messages keyed by seq (a reassembly
   buffer: retransmitted messages can arrive out of order). *)
type chan = {
  mutable send_seq : int;
  mutable deliver_seq : int;
  pending : (int, t * float) Hashtbl.t;  (* seq -> (msg, arrival) *)
}

let channel channels key =
  match Hashtbl.find_opt channels key with
  | Some c -> c
  | None ->
    let c = { send_seq = 0; deliver_seq = 0; pending = Hashtbl.create 4 } in
    Hashtbl.replace channels key c;
    c

(* Deliver the next in-order message on [ch], if it has arrived. *)
let take_deliverable ch =
  match Hashtbl.find_opt ch.pending ch.deliver_seq with
  | Some (msg, arrival) ->
    Hashtbl.remove ch.pending ch.deliver_seq;
    ch.deliver_seq <- ch.deliver_seq + 1;
    Some (msg, arrival)
  | None -> None
