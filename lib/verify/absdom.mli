(** Compressed ensemble value domain for the static verifier.

    One value of type {!t} summarizes what a scalar holds on ALL [n]
    processors at once.  Instead of the dense per-P array of the
    original implementation (every operation O(P), making
    [fdc check -p 65536] intractable), lanes are stored by shape class:

    - [Uni v] — every processor holds [v].  [Uni Punk] means "same on
      all processors, value unknown": still uniform, which is what lets
      the analysis prove collective congruence through data-dependent
      but processor-uniform branches.
    - [Runs segs] — processors disagree; [segs] is a run-length cover
      of pid space, each run a per-run constant ([Sconst]) or an affine
      function of the pid ([Saff], lane value [a*pid + b]) — the shape
      of [my$p], of owner guards, and of neighbor indices.

    {b Invariants} (established by {!of_segs} and preserved by every
    operation):

    - the runs of a [Runs] cover exactly [\[0, n-1\]], sorted,
      contiguous, non-overlapping;
    - adjacent runs are not mergeable (different constants, or affine
      forms that do not continue each other);
    - a singleton affine run is folded to its constant;
    - a full-range run of a {e known} constant is promoted to [Uni] —
      but a full-range [Sconst Punk] stays [Runs]: divergent-unknown is
      deliberately distinct from uniform-unknown ([Uni Punk]), and only
      uniform inputs may produce the latter.

    Semantics are defined pointwise: {!Fd_frontend.Value}'s operations
    lifted to lanes ({!lift}), plus Kleene logic and the join.  The
    compressed fast paths are equivalent by concretization —
    property-tested in [test/test_absdom.ml] against
    {!to_dense}/{!of_dense}. *)

open Fd_support

(** A single lane's value: known scalar or unknown. *)
type pv = Pint of int | Preal of float | Pbool of bool | Punk

(** One run of lanes ({!Fd_support.Lanes}): a constant, or [a*pid + b]
    per lane. *)
type 'c lane_seg = 'c Lanes.seg = Sconst of 'c | Saff of { a : int; b : int }

type seg = pv lane_seg

type t = Uni of pv | Runs of pv Lanes.t

val lift : (Fd_frontend.Value.t list -> Fd_frontend.Value.t) -> pv list -> pv
(** A {!Fd_frontend.Value} operation on known lanes: [Punk] if an
    operand is, or if the operation raises where the program would stop
    (a division by zero). *)

(** Uniform-unknown: same (unknown) value on every processor. *)
val unknown : t

(** Divergent-unknown: each processor may hold a different value. *)
val divergent_unknown : n:int -> t

(** The same representation, lane for lane, reals compared bit for bit
    (unlike {!join}'s provable equality, [Punk] is identical to
    [Punk]). *)
val identical : t -> t -> bool

(** The pid vector itself: lane p holds [Pint p]. *)
val myproc : n:int -> t

(** Build from a sorted contiguous cover of [\[0, n-1\]]; normalizes to
    the invariants above. *)
val of_segs : n:int -> (int * int * seg) list -> t

val of_dense : pv array -> t
val to_dense : n:int -> t -> pv array

val seg_at : seg -> int -> pv

(** [lin_of s] is [Some (a, b)] when every lane of [s] is the integer
    [a*pid + b] ([Sconst (Pint c)] gives [(0, c)]). *)
val lin_of : seg -> (int * int) option

(** The run cover, materializing [Uni] as one full-range run. *)
val segs_of : n:int -> t -> (int * int * seg) list

(** Lane read. *)
val at : t -> int -> pv

(** [Some i] iff the value is [Uni (Pint i)]. *)
val uniform_int : t -> int option

val is_uniform : t -> bool

(** Some lane is unknown. *)
val has_punk : n:int -> t -> bool

(** Pids whose lane is a known integer. *)
val int_pids : n:int -> t -> Iset.t

(** Clip the run cover to [\[lo, hi\]] (result covers only the clip). *)
val restrict : n:int -> t -> int * int -> (int * int * seg) list

(** Common refinement of several values: chunks of pid space on which
    each input is a single segment (in input order). *)
val align_many : n:int -> t list -> (int * int * seg list) list

(** tab$-style lookup: lane p of the result is lane p of [vs.(i)] when
    the selector's lane p is [Pint i] in range, else [Punk]. *)
val select : n:int -> t -> t array -> t

type binop =
  | Add | Sub | Mul | Div | Pow | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or | Max | Min | Join

type unop = Neg | Not | Abs | ToInt | ToReal

(** Pointwise binary operator, with exact segment-level fast paths for
    affine runs (affine +/-/scale, threshold splits for comparisons,
    run enumeration for integer division). *)
val app2 : n:int -> binop -> t -> t -> t

val pv2 : binop -> pv -> pv -> pv
(** The pointwise meaning of a binary operator on one lane. *)

val app1 : n:int -> unop -> t -> t

(** Escape hatch: apply a pointwise function to any number of
    operands (expands affine runs lane-by-lane where needed). *)
val app_pv : n:int -> (pv list -> pv) -> t list -> t

(** Lattice join ([pv_join] pointwise). *)
val join : n:int -> t -> t -> t

(** [store ~n ~into v]: the lanes of a scalar cell holding [into] once
    [v] is stored in it, each as {!Fd_frontend.Value.stored} converts; a
    lane where [into] is unknown keeps [v]'s. *)
val store : n:int -> into:t -> t -> t

(** Masked update: lanes in [act] take the new value, others keep the
    old one. *)
val blend : n:int -> act:Iset.t -> t -> t -> t

(** Classification of a branch condition over the active set. *)
type truth =
  | T_true
  | T_false
  | T_unknown_uniform  (** same unknown on every processor *)
  | T_split of Iset.t * Iset.t
      (** decided lane-by-lane on the active set *)
  | T_divergent  (** some active lane's truth is unknown *)

val truth : n:int -> act:Iset.t -> t -> truth

val truth_of_pids : n:int -> act:Iset.t -> Iset.t -> truth
(** [truth_of_pids ~n ~act t] is [truth ~n ~act v] for every [v] whose
    lanes are known booleans, true exactly on the pids of [t] (a subset
    of [\[0, n-1\]]). *)
