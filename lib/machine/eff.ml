(* Effects performed by node-program interpreters and handled by the
   scheduler.  Each logical processor runs as a delimited computation;
   communication suspends it until the scheduler can satisfy the
   request. *)

open Fd_support

type coll_op =
  | Coll_bcast of {
      root : int;
      label : string;
      read : unit -> (int array * Value.t) list;  (* meaningful on the root *)
      write : (int array * Value.t) list -> unit; (* stores into my memory *)
    }
  | Coll_remap of {
      obj : Storage.array_obj;  (* my copy of the array *)
      new_layout : Layout.t;
      move : bool;
    }

type _ Effect.t +=
  | Tick : float -> unit Effect.t
  | Send : Message.t -> unit Effect.t
  | Recv : (int * int * Loc.t) -> Message.t Effect.t  (* src, tag, source loc *)
  | Collective : (int * coll_op * Loc.t) -> unit Effect.t  (* site, op, source loc *)
  | Output : string -> unit Effect.t

let tick dt = if dt > 0.0 then Effect.perform (Tick dt)
let send msg = Effect.perform (Send msg)
let recv ~src ~tag ~loc = Effect.perform (Recv (src, tag, loc))
let collective ~site ~loc op = Effect.perform (Collective (site, op, loc))
let output line = Effect.perform (Output line)
