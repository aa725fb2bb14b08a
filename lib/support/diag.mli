(** Compiler diagnostics: recoverable errors, warnings, and contained
    internal crashes, accumulated in explicit per-run sinks.

    Delivery disciplines:
    - the frontend (lexer/parser/sema) {e recovers}: it records every
      diagnosable error into a {!sink} and raises one {!Compile_errors}
      batch at the end, so a single run reports all errors;
    - backend passes fail fast via {!error} ({!Compile_error});
    - would-be [failwith]/[assert false] sites raise {!Internal_error}
      via {!internal}, attributed to the pass that hit them, and the
      driver renders a structured crash report — never a bare
      backtrace. *)

type severity = Warning | Error | Internal

type t = {
  severity : severity;
  loc : Loc.t;  (** start of the offending span; {!Loc.none} if unlocated *)
  end_ : Loc.t option;  (** end of the span (exclusive column), when known *)
  pass : string option;  (** attributed pass/subsystem (internal errors) *)
  message : string;
}

exception Compile_error of t
(** A single fatal diagnostic (backend fail-fast path). *)

exception Compile_errors of t list
(** The accumulated diagnostics of one frontend run, in source order;
    contains at least one [Error]. *)

exception Internal_error of t
(** A contained compiler crash ([severity = Internal]). *)

val make : ?end_:Loc.t -> ?pass:string -> severity -> Loc.t -> string -> t

val error : ?loc:Loc.t -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Compile_error} with a formatted message. *)

val internal : ?loc:Loc.t -> pass:string -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Internal_error} attributed to [pass] — the total-pipeline
    replacement for [failwith]/[assert false] in library code. *)

val sort : t list -> t list
(** Sort (and dedup) into presentation order: by file/line/col, errors
    before warnings at the same position, unlocated diagnostics last. *)

val to_string : t -> string

val pp_snippet : src:string -> Format.formatter -> t -> unit
(** Render the cited source line with a caret/underline marking the
    diagnosed span. [src] is the full text of [t.loc.file]; prints
    nothing if the location is out of range. *)

val report_json : t list -> Json.t
(** [{ok; errors; warnings; diagnostics}] summary of a diagnostic batch. *)

(** {2 Per-run accumulating sinks} *)

type sink
(** Mutable per-run diagnostic accumulator. Explicit state — create one
    per compile request and thread it through the pipeline; nothing is
    shared between runs. *)

val sink : unit -> sink

val report : sink -> t -> unit

val error_to :
  sink -> ?loc:Loc.t -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Record an [Error] and return (recovery path — does not raise). *)

val warn_to : sink -> ?loc:Loc.t -> ('a, Format.formatter, unit, unit) format4 -> 'a

val take_warnings_of : sink -> t list
(** Drain only the warnings, leaving errors in place. *)

val clear : sink -> unit

val raise_if_errors : sink -> unit
(** If the sink holds any error, raise the whole sorted batch (errors
    and warnings) as {!Compile_errors}, clearing the sink. *)

val global : sink
(** @deprecated A process-global sink left from the pre-sink API.  No
    library code writes to it; it stays only because the benchmark
    driver ([perfbench/perf.ml]) clears it between operations.  Delete
    it once that call goes. *)
