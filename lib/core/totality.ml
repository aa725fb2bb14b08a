(* Totality layer: the one place where the driver's exceptions become a
   disciplined exit-code table.  Every fdc entry point wraps its body in
   [protect]; whatever escapes is classified — user diagnostics,
   simulation failure, or a contained crash — and rendered structurally,
   never as a bare OCaml backtrace. *)

open Fd_support
open Fd_machine

type crash = {
  c_pass : string option;  (* attributed pass, when the site was converted *)
  c_loc : Loc.t option;
  c_message : string;
  c_backtrace : string;  (* raw backtrace, for the crash report body *)
}

type outcome =
  | Exit of int  (* the body ran to completion and chose its own code *)
  | Diagnostics of Diag.t list  (* compile errors/warnings -> exit 2 *)
  | Sim_failed of string  (* structured simulation failure -> exit 3 *)
  | Crash of crash  (* contained internal error -> exit 4 *)

(* The exit-code table (documented in the README):
   0 success; 1 verification/check/fuzz failure; 2 compile diagnostics;
   3 simulation error; 4 internal compiler crash.  cmdliner keeps its
   own 124 (CLI parse error) and 125 (internal cmdliner error). *)
let check_failed = 1
let compile_failed = 2
let sim_failed = 3
let crashed = 4

let code = function
  | Exit n -> n
  | Diagnostics _ -> compile_failed
  | Sim_failed _ -> sim_failed
  | Crash _ -> crashed

let crash_of_diag (d : Diag.t) backtrace =
  { c_pass = d.Diag.pass;
    c_loc = (if d.Diag.loc = Loc.none then None else Some d.Diag.loc);
    c_message = d.Diag.message;
    c_backtrace = backtrace }

let protect (f : unit -> int) : outcome =
  Printexc.record_backtrace true;
  match f () with
  | n -> Exit n
  | exception Diag.Compile_errors ds -> Diagnostics ds
  | exception Diag.Compile_error d -> Diagnostics [ d ]
  | exception Diag.Internal_error d ->
    Crash (crash_of_diag d (Printexc.get_backtrace ()))
  | exception Scheduler.Sim_error e -> Sim_failed (Scheduler.error_to_string e)
  | exception Storage.Runtime_error msg ->
    (* a fault of the sequential run: the program itself is at fault *)
    Sim_failed (Scheduler.error_to_string (Scheduler.Runtime_error msg))
  | exception exn ->
    (* residual escape hatch: an unconverted raise still becomes a
       structured report *)
    Crash
      { c_pass = None; c_loc = None; c_message = Printexc.to_string exn;
        c_backtrace = Printexc.get_backtrace () }

let pp_crash ppf (c : crash) =
  Fmt.pf ppf "fdc: internal error" ;
  (match c.c_pass with Some p -> Fmt.pf ppf " in pass %s" p | None -> ());
  (match c.c_loc with Some l -> Fmt.pf ppf " at %a" Loc.pp l | None -> ());
  Fmt.pf ppf ": %s@." c.c_message;
  if String.trim c.c_backtrace <> "" then
    Fmt.pf ppf "backtrace:@.%s" c.c_backtrace;
  Fmt.pf ppf
    "this is a compiler bug, not a problem with the input program;@.\
     re-run the same command line to reproduce it@."

let crash_to_json (c : crash) : Json.t =
  Json.Obj
    ([ ("error", Json.Str "internal") ]
    @ (match c.c_pass with Some p -> [ ("pass", Json.Str p) ] | None -> [])
    @ (match c.c_loc with
      | Some l -> [ ("loc", Json.Str (Fmt.str "%a" Loc.pp l)) ]
      | None -> [])
    @ [ ("message", Json.Str c.c_message) ])
