(* Procedure cloning for reaching decompositions (paper Section 5.2,
   Figure 8): call sites of P are partitioned so that all calls in one
   partition provide the same (Appear-filtered) decompositions; each
   partition gets its own clone, giving every array a unique reaching
   decomposition inside each procedure body.

   The transformation works source-to-source: clones are materialized at
   the AST level, then the whole program is re-printed, re-parsed and
   re-checked, which renumbers statement ids consistently.  Cloning
   iterates (callers are processed before callees via the topological
   order) until no procedure needs further splitting. *)

open Fd_support
open Fd_frontend
open Fd_callgraph

module SM = Map.Make (String)
module SS = Set.Make (String)

type result = {
  cp : Sema.checked_program;  (* the cloned program *)
  origin : string SM.t;       (* clone name -> original procedure name *)
  clones_made : int;
}

(* Signature of the decompositions a call site provides to the formal and
   COMMON arrays of its callee that appear (are referenced/modified) in
   the callee or its descendants. *)
let call_signature (acg : Acg.t) (rd : Reaching_decomps.t)
    (appear : SS.t) (cs : Acg.call_site) : string =
  let caller = Acg.proc acg cs.Acg.caller in
  let lr = Reaching_decomps.local_of rd cs.Acg.caller in
  let fact = Reaching_decomps.fact_before lr cs.Acg.cs_sid in
  List.filter_map
    (fun (name, actual) ->
      match actual with
      | Ast.Var v when SS.mem name appear && Symtab.is_array caller.Acg.cu.Sema.symtab v ->
        Some (Fmt.str "%s=%a" name Decomp.pp_reaching (Reaching_decomps.get_reaching fact v))
      | _ -> None)
    (Acg.bindings acg cs.Acg.callee cs.Acg.actuals)
  |> String.concat ";"

(* Rename the callee of specific call sites (identified by sid) in a
   program, and duplicate a unit under a new name. *)
let rename_calls (program : Ast.program) (target_sids : int list) (new_name : string) :
    Ast.program =
  List.map
    (fun (u : Ast.punit) ->
      { u with
        body =
          Ast.map_stmts
            (fun s ->
              match s.Ast.kind with
              | Ast.Call (_, args) when List.mem s.Ast.sid target_sids ->
                { s with kind = Ast.Call (new_name, args) }
              | _ -> s)
            u.Ast.body })
    program

let duplicate_unit (u : Ast.punit) (new_name : string) : Ast.punit =
  { u with uname = new_name }

(* One cloning step: find the first procedure (in topological order) whose
   call sites partition into more than one signature class; split it.
   Returns None when the program is stable. *)
let step sink (opts : Options.t) (cp : Sema.checked_program) (origin : string SM.t) :
    (Ast.program * string SM.t * int) option =
  let acg = Acg.build cp in
  if Acg.is_recursive acg then Diag.error "recursive programs are not supported";
  let rd = Reaching_decomps.compute ~sink acg in
  let effects = Side_effects.compute acg in
  let program = List.map (fun cu -> cu.Sema.unit_) cp.Sema.units in
  let try_proc pname =
    if String.equal pname cp.Sema.main then None
    else begin
      let sites = Acg.call_sites_to acg pname in
      if List.length sites < 2 then None
      else begin
        let appear =
          Side_effects.appear effects pname
          |> Side_effects.S.elements |> SS.of_list
        in
        let groups =
          Listx.group_by
            ~key:(fun cs -> call_signature acg rd appear cs)
            ~equal_key:String.equal sites
        in
        if List.length groups <= 1 then None
        else if List.length groups > opts.Options.clone_limit then begin
          Diag.warn_to sink
            "procedure %s needs %d clones (limit %d); cloning disabled for it"
            pname (List.length groups) opts.Options.clone_limit;
          None
        end
        else begin
          (* first group keeps the original name; others get clones *)
          let u = (Acg.proc acg pname).Acg.cu.Sema.unit_ in
          let existing_names =
            List.map (fun (x : Ast.punit) -> x.Ast.uname) program
          in
          let base_origin =
            match SM.find_opt pname origin with Some o -> o | None -> pname
          in
          let program', origin', nclones =
            List.fold_left
              (fun (prog, org, i) (_sig, members) ->
                if i = 0 then (prog, org, 1)
                else begin
                  let rec fresh k =
                    let candidate = Fmt.str "%s$%d" pname k in
                    if List.mem candidate existing_names then fresh (k + 1)
                    else candidate
                  in
                  let clone_name = fresh i in
                  let sids = List.map (fun cs -> cs.Acg.cs_sid) members in
                  let prog = rename_calls prog sids clone_name in
                  let prog = prog @ [ duplicate_unit u clone_name ] in
                  (prog, SM.add clone_name base_origin org, i + 1)
                end)
              (program, origin, 0) groups
          in
          Some (program', origin', nclones - 1)
        end
      end
    end
  in
  List.find_map try_proc (Acg.topo_order acg)

(* Re-check a transformed program through print + parse, renumbering
   statement ids consistently. *)
let recheck (program : Ast.program) : Sema.checked_program =
  Sema.check_source (Ast_printer.program_to_string program)

let apply ~sink (opts : Options.t) (cp : Sema.checked_program) : result =
  let rec loop cp origin count steps =
    if steps > 100 then Diag.error "cloning did not converge";
    match step sink opts cp origin with
    | None -> { cp; origin; clones_made = count }
    | Some (program', origin', n) ->
      loop (recheck program') origin' (count + n) (steps + 1)
  in
  loop cp SM.empty 0 0

let origin_of result name =
  match SM.find_opt name result.origin with Some o -> o | None -> name
