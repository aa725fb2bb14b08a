(** Execution statistics for one simulated run. *)

type t = {
  nprocs : int;
  mutable messages : int;        (** point-to-point messages *)
  mutable message_bytes : int;
  mutable bcasts : int;
  mutable bcast_bytes : int;
  mutable remaps : int;          (** physical remap operations *)
  mutable remap_marks : int;     (** mark-only remaps (array-kill opt.) *)
  mutable remap_bytes : int;
  mutable flops : int;
  mutable mem_ops : int;
  mutable storage_bytes : int;
      (** element and validity bytes of the {!Storage} pages processors
          materialized, summed over processors *)
  mutable max_wait : float;
      (** longest single receive wait (seconds), over all processors *)
  clocks : float array;          (** per-processor virtual time, seconds *)
  busy : float array;            (** per-processor compute time *)
  mutable outputs : (int * string) list;  (** (proc, line), reversed *)
}

val create : int -> t

val elapsed : t -> float
(** Makespan: max over processor clocks. *)

val outputs : t -> string list
(** Captured PRINT lines, in order. *)

val to_json : t -> Fd_support.Json.t
(** The full record as JSON: counters, [elapsed], [max_wait], per-proc
    [clocks]/[busy] and captured outputs — the canonical serialization
    used by [fdc run --json] and the bench scrapers. *)

val to_metrics : t -> Fd_trace.Metrics.t
(** The same counters as {!to_json}, published through the
    {!Fd_trace.Metrics} registry (counters for totals, gauges for
    times), so simulator statistics and trace-derived histograms share
    one serialization. *)

val pp : Format.formatter -> t -> unit
