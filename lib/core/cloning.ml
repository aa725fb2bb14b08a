(* Procedure cloning for reaching decompositions (paper Section 5.2,
   Figure 8): call sites of P are partitioned so that all calls in one
   partition provide the same (Appear-filtered) decompositions; each
   partition gets its own clone, giving every array a unique reaching
   decomposition inside each procedure body.

   Cloning runs after the ACG, reaching decompositions and side effects,
   in the paper's order, and works on the checked program.  A clone is
   its original unit under a new name, sharing the symbol table, with
   fresh statement ids; the callers' CALL statements are retargeted by
   sid.  Only a split rebuilds the three analyses.  Procedures are
   visited callers first, each once: a split changes nothing that
   reaches a procedure visited before it, and a clone's call sites all
   provide one signature. *)

open Fd_support
open Fd_frontend
open Fd_callgraph

module SM = Map.Make (String)
module SS = Set.Make (String)

type result = {
  cp : Sema.checked_program;
  origin : string SM.t;
  clones_made : int;
  acg : Acg.t;
  rd : Reaching_decomps.t;
  effects : Side_effects.t;
}

let clone_limit = 16

(* The decompositions a call site provides to the formal and COMMON
   arrays of its callee that appear (are referenced/modified) in the
   callee or its descendants. *)
let call_signature r appear (cs : Acg.call_site) : (string * Decomp.reaching) list =
  let symtab = (Acg.proc r.acg cs.Acg.caller).Acg.cu.Sema.symtab in
  let lr = Reaching_decomps.local_of r.rd cs.Acg.caller in
  let fact = Reaching_decomps.fact_before lr cs.Acg.cs_sid in
  List.filter_map
    (fun (name, actual) ->
      match actual with
      | Ast.Var v when Side_effects.S.mem name appear && Symtab.is_array symtab v ->
        Some (name, Reaching_decomps.get_reaching fact v)
      | _ -> None)
    (Acg.bindings r.acg cs.Acg.callee cs.Acg.actuals)

let same_signature =
  List.equal (fun (n, a) (n', b) -> String.equal n n' && Decomp.reaching_equal a b)

(* Point the CALL statements [sids] at [name]. *)
let retarget sids name (cu : Sema.checked_unit) : Sema.checked_unit =
  let u = cu.Sema.unit_ in
  let body =
    Ast.map_stmts
      (fun s ->
        match s.Ast.kind with
        | Ast.Call (_, args) when List.mem s.Ast.sid sids ->
          { s with kind = Ast.Call (name, args) }
        | _ -> s)
      u.Ast.body
  in
  { cu with unit_ = { u with body } }

(* [cu] under [name], its statements numbered in preorder by [next], as
   the parser numbers a unit printed at the end of the program. *)
let duplicate next name (cu : Sema.checked_unit) : Sema.checked_unit =
  let u = cu.Sema.unit_ in
  let fresh = Hashtbl.create 64 in
  Ast.iter_stmts (fun s -> Hashtbl.replace fresh s.Ast.sid (next ())) u.Ast.body;
  let body =
    Ast.map_stmts (fun s -> { s with sid = Hashtbl.find fresh s.Ast.sid }) u.Ast.body
  in
  { cu with unit_ = { u with uname = name; body } }

(* Split [pname] when its call sites provide more than one signature: the
   first class keeps the procedure, every other class calls a clone. *)
let split ~sink r pname : result option =
  let sites = Acg.call_sites_to r.acg pname in
  if String.equal pname r.cp.Sema.main || List.length sites < 2 then None
  else
    let appear = Side_effects.appear r.effects pname in
    match
      Listx.group_by ~key:(call_signature r appear) ~equal_key:same_signature sites
    with
    | [] | [ _ ] -> None
    | groups when List.length groups > clone_limit ->
      Diag.warn_to sink "procedure %s needs %d clones (limit %d); cloning disabled for it"
        pname (List.length groups) clone_limit;
      None
    | _ :: rest ->
      let last = ref (-1) in
      List.iter
        (fun cu ->
          Ast.iter_stmts (fun s -> last := max !last s.Ast.sid) cu.Sema.unit_.Ast.body)
        r.cp.Sema.units;
      let next () = incr last; !last in
      let original = (Acg.proc r.acg pname).Acg.cu in
      let base = match SM.find_opt pname r.origin with Some o -> o | None -> pname in
      let taken name = List.exists (fun cu -> String.equal cu.Sema.unit_.Ast.uname name) in
      let units, clones, origin, _ =
        List.fold_left
          (fun (units, clones, origin, i) (_, members) ->
            let rec fresh k =
              let c = Fmt.str "%s$%d" pname k in
              if taken c units || taken c clones then fresh (k + 1) else c
            in
            let name = fresh i in
            let sids = List.map (fun cs -> cs.Acg.cs_sid) members in
            ( List.map (retarget sids name) units,
              clones @ [ duplicate next name original ],
              SM.add name base origin,
              i + 1 ))
          (r.cp.Sema.units, [], r.origin, 1) rest
      in
      let cp = { r.cp with Sema.units = units @ clones } in
      let acg = Acg.build cp in
      (* a clone's ALIGNs are its original's: their warnings are out already *)
      let rd = Reaching_decomps.compute ~sink:(Diag.sink ()) acg in
      Some
        { cp; origin; clones_made = r.clones_made + List.length rest; acg; rd;
          effects = Side_effects.compute acg }

let apply ~sink cp ~acg ~rd ~effects : result =
  let rec scan r seen = function
    | [] -> r
    | pname :: rest -> (
      let seen = SS.add pname seen in
      match split ~sink r pname with
      | None -> scan r seen rest
      | Some r ->
        scan r seen (List.filter (fun p -> not (SS.mem p seen)) (Acg.topo_order r.acg)))
  in
  scan { cp; origin = SM.empty; clones_made = 0; acg; rd; effects } SS.empty
    (Acg.topo_order acg)

let origin_of result name =
  match SM.find_opt name result.origin with Some o -> o | None -> name
