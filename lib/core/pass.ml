(* Pass-manager substrate: the shared pipeline context and the typed
   description of one compiler pass.  See Pipeline for the standard pass
   list and the runner. *)

open Fd_support
open Fd_frontend
open Fd_callgraph

type ctx = {
  opts : Options.t;
  sink : Diag.sink;
  file : string option;
  source : string option;
  mutable parsed : Ast.program option;
  mutable checked : Sema.checked_program option;
  mutable clone_result : Cloning.result option;
  mutable acg : Acg.t option;
  mutable rd : Reaching_decomps.t option;
  mutable effects : Side_effects.t option;
  mutable summaries : (string * Local_summary.t) list option;
  mutable compiled : Codegen.compiled option;
}

type status = I_not_checked | I_ok | I_violated of string list

type entry = {
  e_pass : string;
  e_time : float;
  e_size : int;
  e_status : status;
}

type report = entry list

type t = {
  p_name : string;
  p_run : ctx -> unit;
  p_dump : ctx -> string option;
  p_verify : ctx -> string list;
  p_size : ctx -> int;
}

let missing pass = Diag.error "pipeline: the %s pass has not run" pass

let get_parsed c = match c.parsed with Some v -> v | None -> missing "parse"
let get_checked c = match c.checked with Some v -> v | None -> missing "sema"

let get_clone_result c =
  match c.clone_result with Some v -> v | None -> missing "cloning"

let get_acg c = match c.acg with Some v -> v | None -> missing "acg"
let get_rd c = match c.rd with Some v -> v | None -> missing "reaching_decomps"
let get_effects c = match c.effects with Some v -> v | None -> missing "side_effects"

let get_summaries c =
  match c.summaries with Some v -> v | None -> missing "local_summaries"

let get_compiled c = match c.compiled with Some v -> v | None -> missing "codegen"

let report_ok r =
  List.for_all (fun e -> match e.e_status with I_violated _ -> false | _ -> true) r

let violations r =
  List.concat_map
    (fun e ->
      match e.e_status with
      | I_violated msgs -> List.map (fun m -> (e.e_pass, m)) msgs
      | _ -> [])
    r

let pp_entry ppf e =
  Fmt.pf ppf "%-18s %9.3f ms  size %6d  %s" e.e_pass (e.e_time *. 1e3) e.e_size
    (match e.e_status with
    | I_not_checked -> "-"
    | I_ok -> "ok"
    | I_violated msgs -> Fmt.str "VIOLATED (%d)" (List.length msgs))
