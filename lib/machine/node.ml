(* The SPMD node-program IR produced by the Fortran D compiler back ends
   and executed by the simulator.

   Expressions reuse {!Fd_frontend.Ast.expr}; on top of the sequential
   statement forms the IR adds explicit message passing (guarded
   send/recv of array sections, broadcast) and dynamic remapping.  All
   index expressions are in *global* index space; each array carries a
   {!Layout.t} mapping indices to owners (see DESIGN.md section 6). *)

open Fd_support
open Fd_frontend

(* Per-dimension (lo, hi, step) in global index space; expressions may
   reference my$p, loop variables, and node-program scalars. *)
type section = (Ast.expr * Ast.expr * Ast.expr) list

type payload =
  | P_section of string * section
  | P_scalar of string

type nstmt =
  | N_assign of Ast.expr * Ast.expr
  | N_do of { var : string; lo : Ast.expr; hi : Ast.expr; step : Ast.expr option;
              body : nstmt list }
  | N_if of { cond : Ast.expr; then_ : nstmt list; else_ : nstmt list;
              loc : Loc.t }
  | N_call of string * Ast.expr list
  | N_send of { dest : Ast.expr; parts : (string * section) list; tag : int;
                loc : Loc.t }
  | N_recv of { src : Ast.expr; tag : int; loc : Loc.t }
  | N_bcast of { root : Ast.expr; payload : payload; site : int; loc : Loc.t }
  | N_remap of { array : string; new_layout : Layout.t; move : bool; site : int;
                 loc : Loc.t }
  | N_print of Ast.expr list
  | N_return

type array_decl = {
  ad_name : string;
  ad_elt : Ast.dtype;
  ad_layout : Layout.t;  (* initial layout *)
}

type nproc = {
  np_name : string;
  np_formals : string list;
  np_arrays : array_decl list;   (* declared arrays (formals and locals) *)
  np_scalars : (string * Ast.dtype) list;  (* declared scalars *)
  np_body : nstmt list;
}

type program = {
  n_procs : nproc list;
  n_main : string;
  n_nprocs : int;  (* the P the program was compiled for *)
  n_common_arrays : array_decl list;        (* COMMON storage, shared *)
  n_common_scalars : (string * Ast.dtype) list;
}

let find_proc prog name =
  List.find_opt (fun p -> String.equal p.np_name name) prog.n_procs

(* --- Pretty printer (paper Figure 2 style) --------------------------- *)

let pp_section ppf (s : section) =
  let pp_dim ppf (lo, hi, step) =
    match step with
    | Ast.Int_const 1 ->
      Fmt.pf ppf "%a:%a" Ast_printer.pp_expr lo Ast_printer.pp_expr hi
    | _ ->
      Fmt.pf ppf "%a:%a:%a" Ast_printer.pp_expr lo Ast_printer.pp_expr hi
        Ast_printer.pp_expr step
  in
  Fmt.pf ppf "%a" Fmt.(list ~sep:(any ",") pp_dim) s

let rec pp_nstmt indent ppf (s : nstmt) =
  let pad = String.make indent ' ' in
  match s with
  | N_assign (lhs, rhs) ->
    Fmt.pf ppf "%s%a = %a@." pad Ast_printer.pp_expr lhs Ast_printer.pp_expr rhs
  | N_do { var; lo; hi; step; body } ->
    (match step with
    | None ->
      Fmt.pf ppf "%sdo %s = %a, %a@." pad var Ast_printer.pp_expr lo
        Ast_printer.pp_expr hi
    | Some st ->
      Fmt.pf ppf "%sdo %s = %a, %a, %a@." pad var Ast_printer.pp_expr lo
        Ast_printer.pp_expr hi Ast_printer.pp_expr st);
    List.iter (pp_nstmt (indent + 2) ppf) body;
    Fmt.pf ppf "%senddo@." pad
  | N_if { cond; then_; else_; _ } ->
    Fmt.pf ppf "%sif (%a) then@." pad Ast_printer.pp_expr cond;
    List.iter (pp_nstmt (indent + 2) ppf) then_;
    if else_ <> [] then begin
      Fmt.pf ppf "%selse@." pad;
      List.iter (pp_nstmt (indent + 2) ppf) else_
    end;
    Fmt.pf ppf "%sendif@." pad
  | N_call (name, args) ->
    Fmt.pf ppf "%scall %s(%a)@." pad name
      Fmt.(list ~sep:(any ", ") Ast_printer.pp_expr)
      args
  | N_send { dest; parts; tag; _ } ->
    let pp_part ppf (array, section) =
      Fmt.pf ppf "%s(%a)" array pp_section section
    in
    Fmt.pf ppf "%ssend %a to %a  {tag %d}@." pad
      Fmt.(list ~sep:(any ", ") pp_part)
      parts Ast_printer.pp_expr dest tag
  | N_recv { src; tag; _ } ->
    Fmt.pf ppf "%srecv from %a  {tag %d}@." pad Ast_printer.pp_expr src tag
  | N_bcast { root; payload; site; _ } -> (
    match payload with
    | P_section (a, s) ->
      Fmt.pf ppf "%sbroadcast %s(%a) from %a  {site %d}@." pad a pp_section s
        Ast_printer.pp_expr root site
    | P_scalar v ->
      Fmt.pf ppf "%sbroadcast %s from %a  {site %d}@." pad v Ast_printer.pp_expr
        root site)
  | N_remap { array; new_layout; move; site; _ } ->
    Fmt.pf ppf "%sremap %s to %a%s  {site %d}@." pad array Layout.pp new_layout
      (if move then "" else " (mark only)")
      site
  | N_print args ->
    Fmt.pf ppf "%sprint *, %a@." pad
      Fmt.(list ~sep:(any ", ") Ast_printer.pp_expr)
      args
  | N_return -> Fmt.pf ppf "%sreturn@." pad

let pp_nproc ppf np =
  if np.np_formals = [] then Fmt.pf ppf "node program %s@." np.np_name
  else Fmt.pf ppf "node subroutine %s(%s)@." np.np_name (String.concat ", " np.np_formals);
  List.iter
    (fun a ->
      Fmt.pf ppf "  %s %s(%s)  ! %a@."
        (Ast_printer.dtype_name a.ad_elt)
        a.ad_name
        (String.concat ", "
           (List.map (fun (lo, hi) -> Fmt.str "%d:%d" lo hi) a.ad_layout.Layout.bounds))
        Layout.pp a.ad_layout)
    np.np_arrays;
  List.iter
    (fun (v, ty) -> Fmt.pf ppf "  %s %s@." (Ast_printer.dtype_name ty) v)
    np.np_scalars;
  List.iter (pp_nstmt 2 ppf) np.np_body;
  Fmt.pf ppf "end@."

let pp_program ppf prog =
  Fmt.pf ppf "! SPMD node program for P = %d@.@." prog.n_nprocs;
  if prog.n_common_arrays <> [] || prog.n_common_scalars <> [] then begin
    Fmt.pf ppf "! common storage:@.";
    List.iter
      (fun a ->
        Fmt.pf ppf "!   %s %s  (%a)@."
          (Ast_printer.dtype_name a.ad_elt)
          a.ad_name Layout.pp a.ad_layout)
      prog.n_common_arrays;
    List.iter
      (fun (v, ty) -> Fmt.pf ppf "!   %s %s@." (Ast_printer.dtype_name ty) v)
      prog.n_common_scalars;
    Fmt.pf ppf "@."
  end;
  Fmt.(list ~sep:(any "@.") pp_nproc) ppf prog.n_procs

(* Map a function over every expression in a statement tree (used by the
   code generator to fold PARAMETER constants into node programs). *)
let rec map_exprs (f : Ast.expr -> Ast.expr) (s : nstmt) : nstmt =
  let fsec = List.map (fun (lo, hi, st) -> (f lo, f hi, f st)) in
  match s with
  | N_assign (lhs, rhs) -> N_assign (f lhs, f rhs)
  | N_do { var; lo; hi; step; body } ->
    N_do { var; lo = f lo; hi = f hi; step = Option.map f step;
           body = List.map (map_exprs f) body }
  | N_if { cond; then_; else_; loc } ->
    N_if { cond = f cond; then_ = List.map (map_exprs f) then_;
           else_ = List.map (map_exprs f) else_; loc }
  | N_call (name, args) -> N_call (name, List.map f args)
  | N_send { dest; parts; tag; loc } ->
    N_send
      { dest = f dest; parts = List.map (fun (a, sec) -> (a, fsec sec)) parts;
        tag; loc }
  | N_recv _ as r -> r
  | N_bcast { root; payload; site; loc } ->
    let payload =
      match payload with
      | P_section (a, sec) -> P_section (a, fsec sec)
      | P_scalar _ as p -> p
    in
    N_bcast { root = f root; payload; site; loc }
  | N_remap _ as r -> r
  | N_print args -> N_print (List.map f args)
  | N_return -> N_return
