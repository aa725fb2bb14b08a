(* Run-time resolution (paper Figure 3): every processor executes the
   full iteration space in lockstep; ownership of each reference is
   computed at run time, and each nonlocal access becomes its own
   element message.  This is both the no-interprocedural-information
   baseline strategy and the sound fallback the optimizing code
   generators use for statements outside their recognized patterns. *)

open Fd_support
open Fd_frontend
open Fd_machine

let int_e n = Ast.Int_const n
let myp = Fit.myp

type ctx = {
  nprocs : int;
  symtab : Symtab.t;
  (* may the array be distributed at this point? (ownership itself is
     resolved at run time through the owner$ intrinsic) *)
  is_dist : string -> bool;
  fresh_tag : unit -> int;
  fresh_tmp : unit -> string;
}

let owner_of ctx name subs =
  ignore ctx;
  Ast.Funcall ("owner$", Ast.Var name :: subs)

(* Distributed element reads of an expression: (array, layout, subscripts,
   distributed-dim index expression). *)
let dist_reads ctx (e : Ast.expr) : (string * Ast.expr list) list =
  let out = ref [] in
  Ast.iter_exprs_expr
    (fun e' ->
      match e' with
      | Ast.Ref (name, subs) when ctx.is_dist name -> out := (name, subs) :: !out
      | _ -> ())
    e;
  List.rev !out

let elem_section (subs : Ast.expr list) : Node.section =
  List.map (fun s -> (s, s, int_e 1)) subs

(* Broadcast every distributed element the expressions read from its
   owner, so that every processor can evaluate them. *)
let bcast_reads ctx ~(loc : Loc.t) (exprs : Ast.expr list) : Node.nstmt list =
  List.concat_map (dist_reads ctx) exprs
  |> List.map (fun (rname, rsubs) ->
         let site = ctx.fresh_tag () in
         Node.N_bcast
           { root = owner_of ctx rname rsubs;
             payload = Node.P_section (rname, elem_section rsubs);
             site; loc })

(* Compile one assignment with run-time resolution.  [loc] is the source
   statement, stamped on every message the assignment expands into. *)
let compile_assign ctx ~(loc : Loc.t) (lhs : Ast.expr) (rhs : Ast.expr) :
    Node.nstmt list =
  (* the stored value and the store's own subscripts *)
  let read_exprs = rhs :: (match lhs with Ast.Ref (_, subs) -> subs | _ -> []) in
  match lhs with
  | Ast.Ref (name, subs) when ctx.is_dist name ->
    let o_lhs = ctx.fresh_tmp () in
    let set_o_lhs = Node.N_assign (Ast.Var o_lhs, owner_of ctx name subs) in
    let comms =
      List.concat_map
        (fun (rname, rsubs) ->
          let o_r = ctx.fresh_tmp () in
          let tag = ctx.fresh_tag () in
          [ Node.N_assign (Ast.Var o_r, owner_of ctx rname rsubs);
            Node.N_if
              { cond =
                  Ast.Bin
                    ( Ast.And,
                      Ast.Bin (Ast.Eq, myp, Ast.Var o_r),
                      Ast.Bin (Ast.Ne, Ast.Var o_r, Ast.Var o_lhs) );
                then_ =
                  [ Node.N_send
                      { dest = Ast.Var o_lhs;
                        parts = [ (rname, elem_section rsubs) ]; tag; loc } ];
                else_ = [];
                loc };
            Node.N_if
              { cond =
                  Ast.Bin
                    ( Ast.And,
                      Ast.Bin (Ast.Eq, myp, Ast.Var o_lhs),
                      Ast.Bin (Ast.Ne, Ast.Var o_r, Ast.Var o_lhs) );
                then_ = [ Node.N_recv { src = Ast.Var o_r; tag; loc } ];
                else_ = [];
                loc } ])
        (List.concat_map (dist_reads ctx) read_exprs)
    in
    (set_o_lhs :: comms)
    @ [ Node.N_if
          { cond = Ast.Bin (Ast.Eq, myp, Ast.Var o_lhs);
            then_ = [ Node.N_assign (lhs, rhs) ];
            else_ = [];
            loc } ]
  | _ ->
    (* replicated target: every processor needs the value, so each
       distributed element read is broadcast from its owner *)
    bcast_reads ctx ~loc read_exprs @ [ Node.N_assign (lhs, rhs) ]

(* Compile a full statement tree with run-time resolution.  DISTRIBUTE is
   materialized as a physical remap; IF conditions with distributed reads
   get element broadcasts first; loops run their full bounds everywhere. *)
let rec compile_stmt ctx (s : Ast.stmt) : Node.nstmt list =
  let loc = s.Ast.loc in
  match s.Ast.kind with
  | Ast.Assign (lhs, rhs) -> compile_assign ctx ~loc lhs rhs
  | Ast.Do { var; lo; hi; step; body } ->
    [ Node.N_do
        { var; lo; hi; step; body = List.concat_map (compile_stmt ctx) body } ]
  | Ast.If { cond; then_; else_ } ->
    (* bound first: the condition's sites number before the branches' *)
    let pre = bcast_reads ctx ~loc [ cond ] in
    pre
    @ [ Node.N_if
          { cond;
            then_ = List.concat_map (compile_stmt ctx) then_;
            else_ = List.concat_map (compile_stmt ctx) else_;
            loc } ]
  | Ast.Call (name, args) ->
    (* every processor calls: element actuals are read everywhere *)
    bcast_reads ctx ~loc args @ [ Node.N_call (name, args) ]
  | Ast.Align _ -> []
  | Ast.Distribute _ ->
    (* handled by the strategy driver (remap materialization) *)
    []
  | Ast.Return -> [ Node.N_return ]
  | Ast.Print args ->
    bcast_reads ctx ~loc args
    @ [ Node.N_if
          { cond = Ast.Bin (Ast.Eq, myp, int_e 0);
            then_ = [ Node.N_print args ];
            else_ = [];
            loc } ]
