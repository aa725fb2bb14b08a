(* Interprocedural scalar/array side effects: Gmod(P) and Gref(P), the
   variables modified / referenced by P or its descendants, expressed in
   terms of P's visible names (formals, COMMON members and locals).
   Appear(P) = Gmod(P) u Gref(P) drives cloning (paper Section 5.2,
   Figure 8). *)

open Fd_frontend

module S = Set.Make (String)

type summary = { gmod : S.t; gref : S.t }

type t = (string, summary) Hashtbl.t

let local_effects (cu : Sema.checked_unit) : summary =
  let gmod = ref S.empty and gref = ref S.empty in
  let read_expr e =
    Ast.iter_exprs_expr
      (fun e' ->
        match e' with
        | Ast.Var v -> gref := S.add v !gref
        | Ast.Ref (a, _) -> gref := S.add a !gref
        | _ -> ())
      e
  in
  Ast.iter_stmts
    (fun s ->
      match s.Ast.kind with
      | Ast.Assign (lhs, rhs) ->
        (match lhs with
        | Ast.Var v -> gmod := S.add v !gmod
        | Ast.Ref (a, subs) ->
          gmod := S.add a !gmod;
          List.iter read_expr subs
        | _ -> ());
        read_expr rhs
      | Ast.Do d ->
        gmod := S.add d.var !gmod;
        read_expr d.lo;
        read_expr d.hi;
        Option.iter read_expr d.step
      | Ast.If i -> read_expr i.cond
      | Ast.Call (_, args) ->
        (* Call effects are added during interprocedural propagation;
           subscripts of subscripted actuals are local reads. *)
        List.iter
          (fun a ->
            match a with
            | Ast.Var _ -> ()
            | Ast.Ref (_, subs) -> List.iter read_expr subs
            | e -> read_expr e)
          args
      | Ast.Print args -> List.iter read_expr args
      | Ast.Align _ | Ast.Distribute _ | Ast.Return -> ())
    cu.Sema.unit_.Ast.body;
  { gmod = !gmod; gref = !gref }

(* Translate a callee-side name set into the caller's names through the
   call's bindings: formals map to lvalue actuals, COMMON members to
   themselves, callee locals drop. *)
let translate_set acg (cs : Acg.call_site) (set : S.t) : S.t =
  List.fold_left
    (fun acc (name, actual) ->
      if not (S.mem name set) then acc
      else
        match actual with
        | Ast.Var v | Ast.Ref (v, _) -> S.add v acc
        | _ -> acc)
    S.empty
    (Acg.bindings acg cs.Acg.callee cs.Acg.actuals)

let compute (acg : Acg.t) : t =
  let table : t = Hashtbl.create 16 in
  (* reverse topological order: callees before callers *)
  List.iter
    (fun name ->
      let p = Acg.proc acg name in
      let base = local_effects p.Acg.cu in
      let summary =
        List.fold_left
          (fun acc cs ->
            match Hashtbl.find_opt table cs.Acg.callee with
            | None -> acc  (* unreachable or recursive edge; conservative skip *)
            | Some callee_sum ->
              { gmod = S.union acc.gmod (translate_set acg cs callee_sum.gmod);
                gref = S.union acc.gref (translate_set acg cs callee_sum.gref) })
          base p.Acg.calls
      in
      Hashtbl.replace table name summary)
    (Acg.reverse_topo_order acg);
  table

let gmod (t : t) name =
  match Hashtbl.find_opt t name with Some s -> s.gmod | None -> S.empty

let gref (t : t) name =
  match Hashtbl.find_opt t name with Some s -> s.gref | None -> S.empty

let appear (t : t) name = S.union (gmod t name) (gref t name)
