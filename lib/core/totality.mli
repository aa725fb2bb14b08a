(** The totality layer: classify whatever escapes an [fdc] entry point
    and map it onto the documented exit-code table.  With every entry
    point wrapped in {!protect}, the CLI never shows a bare OCaml
    backtrace — diagnostics, simulation failures, and contained crashes
    each render structurally. *)

open Fd_support

type crash = {
  c_pass : string option;
      (** the pass a converted [failwith]/[assert false] site attributed
          itself to; [None] for an unconverted raise *)
  c_loc : Loc.t option;
  c_message : string;
  c_backtrace : string;
}

type outcome =
  | Exit of int  (** the body ran to completion and chose its own code *)
  | Diagnostics of Diag.t list  (** compile diagnostics — exit 2 *)
  | Sim_failed of string  (** structured simulation failure — exit 3 *)
  | Crash of crash  (** contained internal error — exit 4 *)

(** {2 The exit-code table}

    0 success; 1 verification/check/fuzz failure; 2 compile diagnostics;
    3 simulation error; 4 internal compiler crash (cmdliner additionally
    reserves 124/125). *)

val check_failed : int
val compile_failed : int
val sim_failed : int
val crashed : int

val code : outcome -> int

val protect : (unit -> int) -> outcome
(** Run [f], classifying any escape: {!Fd_support.Diag.Compile_errors} /
    {!Fd_support.Diag.Compile_error} become [Diagnostics],
    {!Fd_support.Diag.Internal_error} and any residual exception become
    [Crash] (with backtrace), {!Fd_machine.Scheduler.Sim_error} becomes
    [Sim_failed].  Enables backtrace recording as a side effect. *)

val pp_crash : Format.formatter -> crash -> unit
(** The structured crash report: pass attribution, location, message,
    backtrace, and a reproduction hint. *)

val crash_to_json : crash -> Json.t
