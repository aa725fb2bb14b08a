(** Effects performed by node-program interpreters and handled by the
    scheduler.  Each logical processor runs as a delimited computation;
    communication suspends it until the scheduler can satisfy the
    request. *)

open Fd_support

type coll_op =
  | Coll_bcast of {
      root : int;
      label : string;
      read : unit -> (int array * Value.t) list;
          (** payload extraction; meaningful on the root *)
      write : (int array * Value.t) list -> unit;
          (** payload installation into this processor's memory *)
    }
  | Coll_remap of {
      obj : Storage.array_obj;  (** this processor's copy of the array *)
      new_layout : Layout.t;
      move : bool;  (** physical data movement vs mark-only *)
    }

type _ Effect.t +=
  | Tick : float -> unit Effect.t
  | Send : Message.t -> unit Effect.t
  | Recv : (int * int * Loc.t) -> Message.t Effect.t  (** src, tag, source loc *)
  | Collective : (int * coll_op * Loc.t) -> unit Effect.t  (** site, op, source loc *)
  | Output : string -> unit Effect.t

val tick : float -> unit
val send : Message.t -> unit
val recv : src:int -> tag:int -> loc:Loc.t -> Message.t
val collective : site:int -> loc:Loc.t -> coll_op -> unit
val output : string -> unit
