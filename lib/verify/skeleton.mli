(** Interval skeleton replay: the communication-matching half of
    [fdc check].

    The abstract walk ({!module:Absint}) emits a program skeleton — a
    list of communication {!event}s.  Where the dense implementation
    emitted one event per processor, an event now covers a pid
    {e interval} [\[e_plo, e_phi\]] whose lanes differ only affinely in
    the pid ({!aff} forms for destinations, sources, and section
    bounds).  Replay then advances {e groups} (disjoint pid intervals,
    initially the single group [\[0, P-1\]]) through the event list in
    rounds, splitting a group only when its lanes genuinely diverge
    (wildcard matches, partial event overlap, per-pid receive
    decisions).  For the regular patterns of real node programs —
    shifts, reflections, broadcasts from a uniform root — no split ever
    happens and replay is O(events), independent of P.  Once groups
    split into singletons (wildcard receives, per-element messages of
    run-time resolution) a step advances one pid, so replay costs
    O(events x P) steps, and each receive scans the live messages of
    its tag in the shared {!Replay} queue — never the consumed ones.

    That group engine ({!replay}) is written once, here, and has two
    clients, each a lens over a per-group payload: {!run}'s
    verification lens (received sets, payload checks, finding
    attribution, the deadlock report) and {!Cost.analyze}'s timing lens
    (affine clocks, piecewise counters, sites, the critical path).

    Matching honours the dense engine's round order (pids ascend within
    a round, each advancing until blocked): a message pushed in the
    current round is visible to a receiver only from senders at or
    below it, so finding attribution (which pid's text reaches the
    report first) is byte-identical to the dense verifier.

    Checks preserved from the dense engine: deadlock / quiescence
    cycles, collective congruence (all pids at the same collective,
    same site, agreeing root), payload validity (section bounds, rank,
    step), wildcard degradation, redundant receives. *)

open Fd_support
open Fd_machine

(** Affine pid form: [fun pid -> a*pid + b]. *)
type aff = Replay.aff = { a : int; b : int }

val aff_at : aff -> int -> int

(** One array section of a send payload. *)
type part = {
  p_array : string;
  p_triplets : (aff * aff * aff) list option;
      (** per-dim (lo, hi, step) of the sent section, affine in the
          SENDER pid; [None]: section not evaluable *)
  p_layout : Layout.t;  (** sender's layout at emission *)
}

type recv_array = {
  ra_name : string;
  ra_layout : Layout.t;  (** receiver's layout at emission *)
}

type coll_payload =
  | Cp_scalar of string
  | Cp_section of {
      cs_array : string;
      cs_triplets : Triplet.t list option;  (** evaluated at the root *)
      cs_layout : Layout.t;  (** root's layout at emission *)
    }
  | Cp_remap of {
      cr_array : string;
      cr_old : Layout.t;  (** reaching layout before the remap *)
      cr_new : Layout.t;  (** target layout *)
      cr_move : bool;  (** physical move vs. mark-only (array-kill opt) *)
    }

type kind =
  | Ev_send of { dest : aff option; tag : int; parts : part list }
  | Ev_recv of { src : aff option; tag : int; arrays : recv_array list }
  | Ev_coll of {
      id : int;
      site : int;
      label : string;
      root : int option;
      payload : coll_payload;
    }
  | Ev_assume of { array : string; elems : Iset.t }
      (** data conservatively assumed delivered by communication inside
          a region the walker could not verify *)

(** An event executed identically (up to the affine forms) by every pid
    in [\[e_plo, e_phi\]]. *)
type event = { e_plo : int; e_phi : int; e_kind : kind; e_loc : Loc.t }

(** Evaluate an affine section triplet at a concrete (sender) pid. *)
val triplet_at : aff * aff * aff -> int -> Triplet.t

(** {1 The group engine}

    A client passes {!hooks} over a per-group payload ['p] and the
    message payload ['m] of its {!Replay} queue. *)

(** Processors [\[g_lo, g_hi\]], all at event [g_cur] with payload
    [g_pay].  Groups partition [\[0, P-1\]] in pid order. *)
type 'p group = private {
  mutable g_lo : int;
  mutable g_hi : int;
  mutable g_cur : int;
  mutable g_seen : bool;
  mutable g_pay : 'p;
}

(** What a lens does at each event.  Hooks see the group before the
    event and return its payload after it. *)
type ('p, 'm) hooks = {
  same : 'p -> 'p -> bool;
      (** adjacent groups at the same event merge when this holds *)
  send : 'p group -> loc:Loc.t -> dest:aff option -> tag:int -> part list -> 'p;
      (** push the group's message(s); a wild send ([dest = None]) comes
          one pid at a time *)
  recv_one :
    'p group -> loc:Loc.t -> src:aff option -> tag:int -> recv_array list ->
    ('m Replay.msg * int) option -> 'p;
      (** a one-pid receive, with the message and sender it matched;
          called on every attempt, [None] when it blocks (the payload
          is then dropped) *)
  recv_group :
    'p group -> loc:Loc.t -> tag:int -> recv_array list -> 'm Replay.msg -> aff ->
    [ `Advance of 'p | `Cut of int ];
      (** the whole group matched one message under source form [s]:
          advance past the receive, or cut the group below a pid and
          retry each piece *)
  coll : 'p group list -> event -> (int * int * 'p) list;
      (** every group sits at this collective: fire it and return the
          groups after it as [(lo, hi, payload)] in pid order *)
  stuck : 'p group list -> bool;
      (** quiescence with these groups unfinished: [true] steps each
          past its event and replays on, [false] stops *)
}

val replay :
  ('p, 'm) hooks -> 'm Replay.t -> nprocs:int -> 'p -> event array -> 'p group list
(** Replay the events from the single group [\[0, nprocs-1\]] with this
    payload; returns the final groups. *)

(** Replay the skeleton for [nprocs] processors and report findings.
    [fuzzy_tags] are tags whose matching the walker could not verify. *)
val run :
  nprocs:int ->
  ?fuzzy_tags:(int, unit) Hashtbl.t ->
  event list ->
  Finding.t list
