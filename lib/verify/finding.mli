(** Structured findings of the static SPMD verifier, graded by how
    certain and how damning they are: an [Error] is a proved dynamic
    failure ([fdc check] exits nonzero), a [Warning] a lint (nonzero
    only under [--strict]), an [Info] a coverage note (never affects
    the exit code). *)

open Fd_support

type severity = Error | Warning | Info

type t = {
  severity : severity;
  kind : string;  (** stable kebab-case identifier, e.g. ["static-deadlock"] *)
  message : string;
  loc : Loc.t;  (** source statement the finding cites; [Loc.none] if unknown *)
  proc : int option;  (** processor exhibiting the problem, when specific *)
  tag : int option;  (** message tag, for point-to-point findings *)
  site : int option;  (** collective site, for congruence findings *)
}

val make :
  ?loc:Loc.t -> ?proc:int -> ?tag:int -> ?site:int -> severity -> string -> string -> t

val severity_name : severity -> string

val sort : t list -> t list
(** Deduplicated, errors first, then by source line. *)

val errors : t list -> t list

val counts : t list -> int * int * int
(** Errors, warnings, infos. *)

val pp : Format.formatter -> t -> unit

val report_json : t list -> Json.t
(** The [fdc check --json] envelope: verdict, counts and findings. *)
