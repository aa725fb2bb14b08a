(** Trace exporters: Chrome trace_event JSON, communication matrix,
    per-processor summary, normalized golden skeleton, and trace-derived
    {!Metrics} distributions. *)

val chrome : ?nprocs:int -> Trace.t -> Fd_support.Json.t
(** Chrome trace_event JSON ({["traceEvents"]} object form), loadable in
    Perfetto or [chrome://tracing].  Machine events live on process 0
    with one thread per logical processor (virtual-time timestamps);
    compiler pass spans live on process 1 (wall-clock timestamps).
    [nprocs] fixes the thread-name metadata; inferred from the events
    when omitted. *)

type matrix = {
  m_nprocs : int;
  m_msgs : int array array;   (** [src].(dest) point-to-point messages *)
  m_bytes : int array array;  (** [src].(dest) bytes, incl. remap traffic *)
}

val matrix : nprocs:int -> Trace.t -> matrix

val pp_matrix : Format.formatter -> matrix -> unit

type proc_summary = {
  s_proc : int;
  s_sends : int;
  s_recvs : int;
  s_bytes_out : int;
  s_bytes_in : int;
  s_blocked : float;  (** receive waits + collective waits, seconds *)
  s_busy : float;     (** compute time from the [busy] array, seconds *)
  s_util : float;     (** [busy / elapsed]; 0 when either is unknown *)
}

val summary :
  nprocs:int -> ?busy:float array -> ?elapsed:float -> Trace.t ->
  proc_summary list

val pp_summary : Format.formatter -> proc_summary list -> unit

val skeleton : Trace.t -> string list
(** Normalized communication skeleton: one line per send / recv /
    collective-enter / remap event, timestamps and payload sizes
    stripped.  This is the golden-trace format diffed by the test
    suite. *)

val observe : Metrics.t -> Trace.t -> unit
(** Fold trace-derived distributions into a registry: receive-wait and
    collective-wait histograms, message-size histogram, dropped-event
    counter. *)
