(* Typed section messages exchanged by node programs. *)

type t = {
  src : int;
  dest : int;
  tag : int;            (* static communication-site id *)
  seq : int;
      (* the message's position on its (src, dest, tag) channel, stamped
         by the scheduler; senders construct messages with seq = 0 *)
  parts : (string * (int array * Fd_frontend.Value.t) list) list;
      (* per array, its (global index vector, value) elements; one
         message may aggregate sections of several arrays (paper Fig. 11
         aggregation) *)
  bytes : int;
}
