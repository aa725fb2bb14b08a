(* Aliasing restrictions (paper Section 6.4).

   Two names are aliased when they may refer to the same storage.  In the
   mini language aliases arise through parameter passing (the same array
   passed as two actuals of one call) and through COMMON (a COMMON array
   passed as an actual to a procedure that also touches it through the
   block).

   Fortran D *disallows dynamic data decomposition for aliased
   variables*: redistributing one alias would silently change the other's
   layout.  This pass finds intra-call aliases and rejects programs that
   combine them with dynamic decomposition of the affected formals; it
   also warns when aliased formals are both modified (a portability
   problem even in Fortran 77). *)

open Fd_support
open Fd_frontend
open Fd_callgraph

module SS = Set.Make (String)

type alias_site = {
  al_callee : string;
  al_array : string;          (* the caller-side array *)
  al_formals : string list;   (* the >= 2 formals bound to it *)
  al_loc : Loc.t;
}

(* Formals of [proc] (or its descendants) that are dynamically
   redistributed: the targets of exported or local DISTRIBUTE statements
   reaching a formal array. *)
let redistributes (acg : Acg.t) : (string, SS.t) Hashtbl.t =
  let table = Hashtbl.create 16 in
  List.iter
    (fun pname ->
      let p = Acg.proc acg pname in
      let u = p.Acg.cu.Sema.unit_ in
      let symtab = p.Acg.cu.Sema.symtab in
      let own = ref SS.empty in
      (* local DISTRIBUTE / ALIGN statements targeting formal arrays *)
      Ast.iter_stmts
        (fun s ->
          match s.Ast.kind with
          | Ast.Distribute { decomp; _ } ->
            if List.mem decomp u.Ast.formals || Symtab.is_common symtab decomp then
              own := SS.add decomp !own
            else if Symtab.is_decomposition symtab decomp then
              (* arrays aligned with this decomposition *)
              Ast.iter_stmts
                (fun s' ->
                  match s'.Ast.kind with
                  | Ast.Align { array; target; _ }
                    when String.equal target decomp
                         && (List.mem array u.Ast.formals
                            || Symtab.is_common symtab array) ->
                    own := SS.add array !own
                  | _ -> ())
                u.Ast.body
          | _ -> ())
        u.Ast.body;
      (* plus formals/commons forwarded to callees that redistribute them *)
      List.iter
        (fun (cs : Acg.call_site) ->
          match Hashtbl.find_opt table cs.Acg.callee with
          | None -> ()
          | Some callee_redist ->
            List.iter
              (fun (name, actual) ->
                match actual with
                | Ast.Var v
                  when SS.mem name callee_redist
                       && (List.mem v u.Ast.formals || Symtab.is_common symtab v) ->
                  own := SS.add v !own
                | _ -> ())
              (Acg.bindings acg cs.Acg.callee cs.Acg.actuals))
        p.Acg.calls;
      Hashtbl.replace table pname !own)
    (Acg.reverse_topo_order acg);
  table

(* Every caller array that one call binds to several callee names: two
   formals, or a formal and the COMMON name of an array the callee also
   touches through the block. *)
let alias_sites (acg : Acg.t) (effects : Side_effects.t) : alias_site list =
  List.concat_map
    (fun (p : Acg.proc) ->
      let symtab = p.Acg.cu.Sema.symtab in
      List.concat_map
        (fun (cs : Acg.call_site) ->
          let appear = Side_effects.appear effects cs.Acg.callee in
          Acg.bindings acg cs.Acg.callee cs.Acg.actuals
          |> List.filter_map (fun (name, a) ->
                 match a with
                 | Ast.Var v
                   when Symtab.is_array symtab v
                        && ((not (Symtab.is_common symtab name)) || Side_effects.S.mem v appear) ->
                   Some (v, name)
                 | _ -> None)
          |> Listx.group_by ~key:fst ~equal_key:String.equal
          |> List.filter_map (fun (array, members) ->
                 if List.length members < 2 then None
                 else
                   Some
                     { al_callee = cs.Acg.callee;
                       al_array = array;
                       al_formals = List.map snd members;
                       al_loc = cs.Acg.cs_loc }))
        p.Acg.calls)
    (Acg.procs acg)

(* Check the whole program; raises on Fortran D's forbidden combination,
   warns on double-modification of aliases. *)
let check ~sink (acg : Acg.t) (effects : Side_effects.t) : unit =
  let redist = redistributes acg in
  let sites = alias_sites acg effects in
  List.iter
    (fun site ->
      let callee_redist =
        match Hashtbl.find_opt redist site.al_callee with
        | Some s -> s
        | None -> SS.empty
      in
      let bad = List.filter (fun f -> SS.mem f callee_redist) site.al_formals in
      if bad <> [] then
        Diag.error ~loc:site.al_loc
          "array %s is aliased through formals %s of %s, which dynamically redistributes %s: Fortran D disallows dynamic decomposition of aliased variables"
          site.al_array
          (String.concat "," site.al_formals)
          site.al_callee
          (String.concat "," bad);
      let gmod = Side_effects.gmod effects site.al_callee in
      let modified = List.filter (fun f -> Side_effects.S.mem f gmod) site.al_formals in
      if List.length modified >= 2 then
        Diag.warn_to sink ~loc:site.al_loc
          "aliased formals %s of %s are both modified; behaviour depends on evaluation order"
          (String.concat "," modified)
          site.al_callee)
    sites
