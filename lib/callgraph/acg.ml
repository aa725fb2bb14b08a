(* The augmented call graph (ACG) of Hall-Kennedy: a call graph whose
   nodes also carry interprocedural loop context — for every call site we
   record the stack of enclosing loops (bounds, step, index variable) so
   analyses can reason about loops that enclose a procedure from outside
   (paper Section 5.1, Figure 5). *)

open Fd_support
open Fd_frontend
open Fd_analysis

type call_site = {
  cs_sid : int;  (* statement id of the CALL in the caller *)
  caller : string;
  callee : string;
  actuals : Ast.expr list;
  cs_loops : Sections.loop_ctx list;  (* enclosing loops, outermost first *)
  cs_loc : Loc.t;
}

type proc = {
  pname : string;
  cu : Sema.checked_unit;
  calls : call_site list;  (* in textual order *)
}

type t = {
  procs : proc list;  (* in source order *)
  main : string;
  by_name : (string, proc) Hashtbl.t;
}

let collect_calls (cu : Sema.checked_unit) : call_site list =
  let u = cu.Sema.unit_ in
  let symtab = cu.Sema.symtab in
  let out = ref [] in
  let rec walk loops (s : Ast.stmt) =
    match s.Ast.kind with
    | Ast.Call (callee, actuals) ->
      out :=
        { cs_sid = s.Ast.sid;
          caller = u.Ast.uname;
          callee;
          actuals;
          cs_loops = List.rev loops;
          cs_loc = s.Ast.loc }
        :: !out
    | Ast.Do d -> List.iter (walk (Sections.loop_ctx symtab s d :: loops)) d.body
    | Ast.If i ->
      List.iter (walk loops) i.then_;
      List.iter (walk loops) i.else_
    | Ast.Assign _ | Ast.Align _ | Ast.Distribute _ | Ast.Return | Ast.Print _ -> ()
  in
  List.iter (walk []) u.Ast.body;
  List.rev !out

let build (cp : Sema.checked_program) : t =
  let procs =
    List.map
      (fun cu -> { pname = cu.Sema.unit_.Ast.uname; cu; calls = collect_calls cu })
      cp.Sema.units
  in
  let by_name = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace by_name p.pname p) procs;
  { procs; main = cp.Sema.main; by_name }

let proc t name =
  match Hashtbl.find_opt t.by_name name with
  | Some p -> p
  | None -> Diag.error "no procedure named %s in call graph" name

let procs t = t.procs

let callees_of t name =
  (proc t name).calls |> List.map (fun cs -> cs.callee) |> Listx.dedup ~equal:String.equal

let call_sites_to t name =
  List.concat_map (fun p -> List.filter (fun cs -> String.equal cs.callee name) p.calls) t.procs

(* Topological order (callers before callees).  Raises on recursion: the
   paper's single-pass scheme applies to programs without recursion. *)
exception Recursive of string

let topo_order t : string list =
  let visited = Hashtbl.create 16 in (* name -> [`In_progress | `Done] *)
  let order = ref [] in
  let rec visit name =
    match Hashtbl.find_opt visited name with
    | Some `Done -> ()
    | Some `In_progress -> raise (Recursive name)
    | None ->
      Hashtbl.replace visited name `In_progress;
      List.iter visit (callees_of t name);
      Hashtbl.replace visited name `Done;
      order := name :: !order
  in
  (* Visit from main first, then any unreachable procedures.  DFS
     postorder prepends each procedure after its callees, so [!order]
     already lists callers before callees. *)
  visit t.main;
  List.iter (fun p -> visit p.pname) t.procs;
  !order

let reverse_topo_order t = List.rev (topo_order t)

let is_recursive t =
  match topo_order t with _ -> false | exception Recursive _ -> true

(* The one place a callee's names meet a call's actuals: each formal
   binds to its actual, each COMMON name to itself (the same storage
   under the same name in every unit); callee locals stay unbound. *)
let bindings t callee (actuals : Ast.expr list) : (string * Ast.expr) list =
  let cu = (proc t callee).cu in
  let formals = cu.Sema.unit_.Ast.formals in
  if List.length formals <> List.length actuals then
    Diag.error "arity mismatch calling %s" callee;
  List.combine formals actuals
  @ List.map (fun (name, _) -> (name, Ast.Var name)) (Symtab.commons cu.Sema.symtab)

let pp ppf t =
  List.iter
    (fun p ->
      Fmt.pf ppf "%s:@." p.pname;
      List.iter
        (fun cs ->
          let loop_str =
            String.concat ">" (List.map (fun l -> l.Sections.lvar) cs.cs_loops)
          in
          Fmt.pf ppf "  s%d: call %s%s@." cs.cs_sid cs.callee
            (if loop_str = "" then "" else " [loops " ^ loop_str ^ "]"))
        p.calls)
    t.procs
