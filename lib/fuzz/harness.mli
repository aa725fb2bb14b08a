(** The differential fuzzing harness behind [fdc fuzz].

    Each case derives entirely from its integer seed: a base program
    from {!Fd_workloads.Gen}, usually mutated by {!Mutate} into a
    possibly ill-formed variant, compiled and simulated under a
    per-case resource budget with one randomly chosen strategy.

    The property under test is totality with honest answers: no
    uncaught exceptions ever; frontend rejections carry a source
    location; accepted programs verify against the sequential
    reference, or fail simulation only when their sequential run faults
    too or the static verifier flags them. *)

open Fd_support
open Fd_core

type failure_kind =
  | Crash of string
      (** [Internal_error] or a residual uncaught exception *)
  | Unsound of string
      (** simulation failed but the static check saw nothing *)
  | Mismatch
      (** accepted and ran, but differs from the sequential reference *)
  | Unlocated_reject
      (** the frontend rejected without a source location *)

type verdict =
  | Accepted  (** compiled and verified (or budget-partial) *)
  | Rejected
      (** located diagnostics, a backend fail-fast error, or a run-time
          fault of the sequential run *)
  | Failed of failure_kind

val kind_name : failure_kind -> string
val kind_detail : failure_kind -> string

val default_case_budget : Budget.t
(** 500k steps / 200k events / 2s wall per case. *)

val run_case :
  ?budget:Budget.t -> nprocs:int -> strategy:Options.strategy -> string ->
  verdict
(** Classify one source text.  Never raises. *)

val gen_case : int -> string * Options.strategy
(** The deterministic seed -> (source, strategy) map shared by
    campaigns and [--repro]. *)

type failure = {
  f_seed : int;  (** replay with [fdc fuzz --repro] *)
  f_kind : string;
  f_detail : string;
  f_src : string;  (** shrunk reproducer *)
}

type report = {
  iters : int;  (** cases actually executed (wall budget may stop early) *)
  accepted : int;
  rejected : int;
  failures : failure list;
  elapsed : float;
  execs_per_sec : float;
}

val campaign :
  ?budget:Budget.t -> ?wall:float -> ?nprocs:int -> ?log:(string -> unit) ->
  iters:int -> seed:int -> unit -> report
(** Run [iters] cases with seeds [seed], [seed+1], ….  [?wall] bounds
    the whole campaign (graceful early stop); [?budget] overrides the
    per-case budget.  Failing cases are shrunk while the same failure
    kind reproduces. *)

type repro = {
  r_src : string;
  r_strategy : Options.strategy;
  r_verdict : verdict;
  r_shrunk : string option;  (** present when the case fails *)
}

val repro : ?budget:Budget.t -> ?nprocs:int -> int -> repro
(** Replay one case by seed — the verbose path behind [--repro]. *)
