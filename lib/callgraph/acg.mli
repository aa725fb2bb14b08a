(** The augmented call graph (ACG) of Hall-Kennedy: a call graph whose
    nodes also carry interprocedural loop context — every call site
    records the stack of enclosing loops (bounds, step, index variable)
    so analyses can reason about loops that enclose a procedure from
    outside (paper Section 5.1, Figure 5). *)

open Fd_frontend
open Fd_analysis

type call_site = {
  cs_sid : int;  (** statement id of the CALL in the caller *)
  caller : string;
  callee : string;
  actuals : Ast.expr list;
  cs_loops : Sections.loop_ctx list;  (** enclosing loops, outermost first *)
  cs_loc : Fd_support.Loc.t;
}

type proc = {
  pname : string;
  cu : Sema.checked_unit;
  calls : call_site list;  (** in textual order *)
}

type t = {
  procs : proc list;  (** in source order *)
  main : string;
  by_name : (string, proc) Hashtbl.t;
}

val build : Sema.checked_program -> t

val proc : t -> string -> proc
(** @raise Fd_support.Diag.Compile_error on unknown names. *)

val procs : t -> proc list
val callees_of : t -> string -> string list
val call_sites_to : t -> string -> call_site list

exception Recursive of string

val topo_order : t -> string list
(** Callers before callees (main first).
    @raise Recursive on recursive programs. *)

val reverse_topo_order : t -> string list
(** Callees before callers — the compilation order. *)

val is_recursive : t -> bool

val bindings : t -> string -> Ast.expr list -> (string * Ast.expr) list
(** [bindings acg callee actuals]: the callee's names paired with the
    caller's expressions at one call — each formal with its actual, in
    order, then each COMMON name with itself.  Callee locals have no
    pair.  Every translation of a callee fact into the caller goes
    through it.
    @raise Fd_support.Diag.Compile_error on an arity mismatch (Sema
    rejects those first). *)

val pp : Format.formatter -> t -> unit
