(** Named counters, gauges and fixed-bucket histograms with a single
    JSON serialization ({!Fd_support.Json}).  One registry describes one
    run; {!Fd_machine.Stats.to_metrics} converts simulator statistics
    into this form so every tool serializes metrics the same way. *)

type counter = { mutable c_value : int }

type gauge = { mutable g_value : float }

type histogram = {
  h_bounds : float array;
  h_counts : int array;
  mutable h_sum : float;
  mutable h_count : int;
  mutable h_min : float;
  mutable h_max : float;
}

type item = Counter of counter | Gauge of gauge | Histogram of histogram

type t

val create : unit -> t

val counter : t -> string -> counter
(** Find-or-register.  @raise Invalid_argument if the name is already
    registered as a different item kind. *)

val gauge : t -> string -> gauge

val histogram : t -> string -> bounds:float array -> histogram
(** [bounds] are upper bucket bounds (sorted internally); one overflow
    bucket is appended. *)

val incr : ?by:int -> counter -> unit
val set_counter : counter -> int -> unit
val set : gauge -> float -> unit
val observe : histogram -> float -> unit
val mean : histogram -> float

val items : t -> (string * item) list
(** In registration order. *)

val find : t -> string -> item option

val to_json : t -> Fd_support.Json.t
(** Counters as ints, gauges as floats, histograms as
    [{"type","count","sum","mean","min","max","buckets"}]. *)
