(** The message half of the interval replay, shared by {!Skeleton}
    ([fdc check]) and {!Cost} ([fdc cost]).

    Messages wait in one queue per tag, in emission order; a receive
    scans only its tag's queue, from the first message with an
    unconsumed copy, and a message leaves its queue once every sender's
    copy is consumed (it could match nothing again, so dropping it
    changes no result).  A known-source receive resumes at its
    (tag, source, destination) channel's last match, since no earlier
    message can match that channel again, so a receiver that lags
    behind its sender does not re-read the messages it already took. *)

open Fd_support

(** Affine pid form: [fun pid -> a*pid + b]. *)
type aff = { a : int; b : int }

val aff_at : aff -> int -> int

val fdiv : int -> int -> int
(** Floor division by a positive divisor. *)

val halfline_le : int -> int -> int -> int -> (int * int) option
(** [halfline_le l u k c]: the solutions in [\[l, u\]] of [k*p + c <= 0],
    as an interval. *)

(** A queued message; ['a] is the client's payload. *)
type 'a msg = private {
  tag : int;
  dest : aff option;  (** [None]: destination unknown (wild) *)
  mutable senders : Iset.t;  (** senders whose copy is not yet consumed *)
  round : int;  (** replay round that pushed it *)
  seq : int;  (** emission order over all tags *)
  payload : 'a;
}

type 'a t

val create : nprocs:int -> 'a t
(** A replay of [nprocs] processors: every sender and receiver is a pid
    in [\[0, nprocs)]. *)

val next_round : 'a t -> unit
(** Start a replay round: messages pushed before it are visible to
    every receiver, later ones only to receivers at or above their
    sender. *)

val scanned : 'a t -> int
(** Queue slots the searches of this replay have inspected so far. *)

val push : 'a t -> tag:int -> dest:aff option -> senders:Iset.t -> 'a -> unit

val consume : 'a t -> 'a msg -> Iset.t -> unit
(** Mark these senders' copies received. *)

val live : 'a t -> 'a msg list
(** Messages with an unconsumed copy, in emission order. *)

val image_of_interval : aff -> lo:int -> hi:int -> Iset.t

val match_group :
  'a t -> lo:int -> hi:int -> aff -> int ->
  [ `All of 'a msg | `Cut of int | `Split | `None ]
(** For the receivers [\[lo, hi\]] whose source is [s(p)]: one message is
    the first match of every receiver ([`All]); the first message any of
    them can take matches only some, and the interval must be cut below
    [c], the first boundary of that matched set ([`Cut c]); a wild
    message comes first, so the receivers must be matched one pid at a
    time in dense order ([`Split]); or none of them can match yet
    ([`None]). *)

val match_one : 'a t -> int -> int option -> int -> ('a msg * int) option
(** [match_one t p src tag]: the message receiver [p] takes, and its
    sender, in dense order — direct (known-destination) messages first,
    earliest emission wins, then the wild ones.  [src = None] is a
    wildcard receive. *)
