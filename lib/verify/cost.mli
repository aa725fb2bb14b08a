(** Static communication-cost and critical-path analyzer.

    Computes, without simulation, what a simulated run would report:
    per-processor and aggregate message counts and byte volumes,
    broadcast/remap traffic, and the virtual-time makespan of the
    communication DAG with its critical path — symbolically over pid
    intervals, so the analysis cost is flat in P.

    Counters mirror the simulator's {!Fd_machine.Stats} exactly on every
    fault-free program (differentially tested in [test/test_cost.ml]);
    the makespan equals a compute-free ([flop = mem_op = 0]) simulated
    run when [exact], and is a lower bound under the full cost model
    (compute time is not modelled). *)

open Fd_support
open Fd_machine

(** {1 Sequential branch profile}

    Statically-unresolved but processor-uniform IF conditions are
    resolved by observing one sequential reference execution.  Sites
    whose profile is uniform (always taken or never taken) are walked as
    decided; mixed or unprofiled sites stay excluded regions and flag
    the result approximate.

    The sequential run happens on demand, at most once per profile: the
    first time the walk meets such an IF, or {!force_profile} asks.  A
    program without one never runs it.  A profile is a lazy value, so
    it must not be forced from two domains at once. *)

type profile
(** Per-source-IF decision counts from a sequential run. *)

val profile_of_seq : Fd_frontend.Sema.checked_program -> profile
(** A profile of the program that, once forced, runs the sequential
    reference interpreter, recording each IF decision.  A sequential
    runtime failure yields a partial profile (the analysis then degrades
    to regions, it does not raise). *)

val force_profile : profile -> unit
(** Run the sequential interpreter now, if it has not run yet. *)

val profile_ran : profile -> bool
(** The sequential interpreter has run for this profile. *)

val oracle : profile -> Loc.t -> bool option
(** [Some taken] iff the profile for that statement is uniform. *)

(** {1 Per-processor piecewise-affine quantities}

    A value over pid space as disjoint affine pieces
    [value(p) = a*p + b] on [lo, hi] — flat in P for the regular
    patterns the compiler emits. *)

type ipiece = { ip_lo : int; ip_hi : int; ip_a : int; ip_b : int }
type fpiece = { fp_lo : int; fp_hi : int; fp_a : float; fp_b : float }

val isum_piece : ipiece -> int
(** Closed-form sum of the piece over its pid range. *)

(** {1 Results} *)

type step = {
  st_what : string;  (** "send", "recv", "bcast <label>", "remap <array>" *)
  st_loc : Loc.t;
  st_plo : int;
  st_phi : int;
  st_time : float;  (** completion time (virtual seconds) *)
}
(** One located event on the critical path, in time order. *)

type site_cost = {
  site_loc : Loc.t;
  site_what : string;  (** "send" | "bcast" | "remap" *)
  site_messages : int;
  site_bytes : int;
  site_bcasts : int;
  site_remaps : int;
  site_seconds : float;  (** startup + transfer time charged to the site *)
}
(** Per-source-statement attribution ([fdc cost --by-loop]). *)

type t = {
  nprocs : int;
  messages : int;  (** point-to-point sends, mirroring [Stats.messages] *)
  message_bytes : int;
  bcasts : int;
  bcast_bytes : int;
  remaps : int;  (** physical remaps (data moved) *)
  remap_marks : int;  (** mark-only remaps *)
  remap_bytes : int;
  makespan : float;  (** predicted elapsed virtual time, seconds *)
  exact : bool;
      (** no cost-model assumption was needed: counters are exact and
          the makespan matches a compute-free simulated run *)
  assumptions : string list;  (** why not [exact], in discovery order *)
  per_proc_messages : ipiece list;
  per_proc_bytes : ipiece list;
  send_seconds : fpiece list;  (** startup (alpha) time per sender *)
  wait_seconds : fpiece list;  (** receive-blocked time per processor *)
  coll_seconds : fpiece list;  (** collective barrier + transfer time *)
  critical_path : step list;
  sites : site_cost list;  (** most expensive first *)
  findings : Finding.t list;
      (** Warning "unvectorized-comm" on a send statement whose
          messages number at least 4 and each carry at most one element
          (its site's message count and largest message, however the
          walk cuts it into events); Info "cost-assumption" per
          assumption *)
  events : int;  (** skeleton events priced *)
  regions_excluded : int;  (** unresolved regions containing communication *)
  profile_used : bool;  (** a profile was supplied, whether or not it ran *)
}

val analyze : ?profile:profile -> config:Config.t -> Node.program -> t
(** Walk the program for [config.nprocs] processors (resolving uniform
    branches through [?profile]) and price the resulting skeleton under
    [config]'s cost model.  Total: never raises on checked programs. *)

val remap_traffic :
  nprocs:int -> word:int -> Layout.t -> Layout.t ->
  (int * int * int * int * int) list * int
(** [remap_traffic ~nprocs ~word old_layout new_layout] is a moving
    remap's per-processor bytes sent, bytes received and partner-pair
    counts, as runs [(lo, hi, sent, received, npairs)] covering the pids
    in order (each pid of a run has those counts; neighbouring runs may
    be equal), and its total bytes,
    from owner arithmetic on the distributed extents, for layouts of the
    kind [Decomp] builds.  O(extents), not O(P). *)

(** {1 Export} *)

val to_json : t -> Json.t

val pp : Format.formatter -> t -> unit
val pp_critical_path : Format.formatter -> t -> unit
val pp_sites : Format.formatter -> t -> unit
