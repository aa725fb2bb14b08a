(** Abstract interpretation of a node program over the whole processor
    ensemble at once.

    The walker executes the program once for all P processors,
    tracking:

    - scalar values as compressed lane vectors ({!Absdom.t}) — uniform,
      affine-in-pid, or run-length covers of pid space;
    - the {e active set} as a pid interval set ([Iset.t]) instead of a
      per-P boolean mask, so owner guards ([my$p <= k]) and
      neighbor-relative control flow stay O(runs), not O(P);
    - DO loops in lockstep over the active set, unrolling while any
      active pid's (possibly pid-dependent) bounds keep it live;
    - array layouts ({!Layout.t}), consulted on demand per pid interval
      — no per-processor ownership arrays are materialized.

    Output is a stream of {!Skeleton.event}s whose pid intervals cover
    every emitting processor (one event per interval of lanes that
    agree up to an affine form), plus walk-time findings (out-of-bounds
    sections, divergent broadcast roots, dead sends...).  A section
    step that depends on the pid is an affine form too: the walk cuts
    an interval where a step crosses 1, so each event's section is
    valid on all of its pids or on none, and the replay and the cost
    analyzer evaluate the step per pid.  [test/test_verify.ml] pins the
    findings and cost counters of such sends at P = 4, 7 and 64. *)

open Fd_machine

type result = {
  events : Skeleton.event list;
  findings : Finding.t list;
  fuzzy_tags : (int, unit) Hashtbl.t;
  complete : bool;
      (** the event stream covers the whole program, so the skeleton
          replay's deadlock verdicts are meaningful *)
  visits : int;  (** statements visited, for the bench *)
  comm_regions : Fd_support.Loc.t list;
      (** the IF of each unverified region instance that sends, receives
          or runs a collective, in walk order ([Loc.none] for a symbolic
          loop region).  A region's events never reach [events] (only
          [Ev_assume] does); {!module:Cost} counts these instances to
          flag its prediction approximate, after first resolving what it
          can through [?branch_oracle]. *)
}

(** Walk the program's main entry for [nprocs] processors.  Under a
    [?budget], exhaustion stops the walk gracefully with an Info
    ["budget-exhausted"] finding and [complete = false] — the analysed
    prefix is still reported.  A walk under a budget also walks every
    call's body afresh; without one, a call whose callee was already
    walked in the same context replays that walk, to the same result
    (DESIGN.md 6e "Call summaries").

    [?branch_oracle] resolves processor-uniform but statically-unknown
    IF conditions (keyed by the source statement's location): [Some
    taken] walks that branch in the main stream with full precision
    instead of buffering both branches as a region.  The cost analyzer
    supplies a sequential branch profile here; verification never does
    (its verdicts must not depend on one input's control flow). *)
val walk :
  ?budget:Fd_support.Budget.t ->
  ?branch_oracle:(Fd_support.Loc.t -> bool option) ->
  nprocs:int ->
  Node.program ->
  result

val frames : Node.program -> (string * string list * (string -> string)) list
(** For tests: per node procedure, its name, the names its frame binds
    once its body is resolved, and what an activation binds for a name
    (["formal k"], ["common"], ["array"] or ["scalar <type>"]), resolving
    it as the walk would. *)

val scalar : nprocs:int -> Fd_frontend.Ast.expr -> Absdom.t
(** For tests: the lanes of a scalar expression over [nprocs]
    processors, compiled as the walk compiles it, in a frame where every
    name is [my$p]. *)

val stores :
  nprocs:int ->
  (string * Fd_frontend.Ast.dtype) list ->
  (string * Fd_frontend.Ast.expr) list ->
  Absdom.t list
(** For tests: walk the scalar stores [x = e], in order, in a main
    program that declares [my$p] and the typed scalars [decls], and
    return each of [decls]' lanes at the end, in order. *)
