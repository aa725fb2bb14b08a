(* Reaching decompositions (paper Section 5.2, Figure 6).

   Local phase: a forward dataflow problem over each procedure's CFG
   computing, at every point, the set of decompositions reaching each
   array (ALIGN/DISTRIBUTE statements act as definitions; formal arrays
   start at the > "inherited" placeholder).

   Interprocedural phase: one top-down pass over the call graph in
   topological order computes Reaching(P) for each procedure by
   translating the local sets at each call site (actuals to formals),
   then expands local > placeholders. *)

open Fd_support
open Fd_frontend
open Fd_analysis
open Fd_callgraph

module SM = Map.Make (String)

type fact = Decomp.reaching SM.t

let fact_join (a : fact) (b : fact) : fact =
  SM.union (fun _ x y -> Some (Decomp.reaching_join x y)) a b

let fact_equal = SM.equal Decomp.reaching_equal

let get_reaching (f : fact) v =
  match SM.find_opt v f with Some r -> r | None -> Decomp.reaching_bottom

(* Static alignment map for one unit: array -> (target, subs).  ALIGN is
   executable in Fortran D; this compiler resolves alignment
   flow-insensitively (the last ALIGN for an array wins, with a warning
   when several disagree), which covers the paper's programs where ALIGN
   appears once per array. *)
let align_map ~sink (cu : Sema.checked_unit) :
    (string * Ast.align_sub list) SM.t =
  let m = ref SM.empty in
  Ast.iter_stmts
    (fun s ->
      match s.Ast.kind with
      | Ast.Align { array; target; subs } ->
        (match SM.find_opt array !m with
        | Some (t', s') when not (String.equal t' target && s' = subs) ->
          Diag.warn_to sink ~loc:s.Ast.loc
            "multiple differing ALIGNs for %s; using the last" array
        | _ -> ());
        m := SM.add array (target, subs) !m
      | _ -> ())
    cu.Sema.unit_.Ast.body;
  !m

(* Map a reaching set through a function on single decompositions. *)
let map_reaching f (r : Decomp.reaching) : Decomp.reaching =
  { Decomp.decomps =
      Decomp.Set.fold (fun d acc -> Decomp.Set.add (f d) acc) r.Decomp.decomps
        Decomp.Set.empty;
    top = r.Decomp.top }

(* Initial environment for a unit: formal and COMMON arrays inherit (>)
   in subroutines; everything else starts replicated (the implicit
   default decomposition).  In the main program nothing is inherited. *)
let initial_fact (cu : Sema.checked_unit) : fact =
  let u = cu.Sema.unit_ in
  Symtab.fold cu.Sema.symtab
    (fun name entry acc ->
      match entry with
      | Symtab.Array { dims; _ } ->
        let inherits =
          u.Ast.ukind = Ast.Subroutine
          && (List.mem name u.Ast.formals || Symtab.is_common cu.Sema.symtab name)
        in
        let v =
          if inherits then Decomp.reaching_top
          else Decomp.reaching_single (Decomp.replicated (List.length dims))
        in
        SM.add name v acc
      | Symtab.Decomposition dims ->
        SM.add name (Decomp.reaching_single (Decomp.replicated (List.length dims))) acc
      | Symtab.Scalar _ | Symtab.Param _ -> acc)
    SM.empty

let transfer (cu : Sema.checked_unit) (aligns : (string * Ast.align_sub list) SM.t)
    (node : Cfg.node) (fact : fact) : fact =
  match node with
  | Cfg.Entry | Cfg.Exit -> fact
  | Cfg.Stmt s -> (
    match s.Ast.kind with
    | Ast.Distribute { decomp; dists } ->
      let d = Decomp.of_kinds dists in
      if Symtab.is_decomposition cu.Sema.symtab decomp then begin
        let fact = SM.add decomp (Decomp.reaching_single d) fact in
        (* update every array aligned with this decomposition *)
        SM.fold
          (fun array (target, subs) acc ->
            if String.equal target decomp then
              let rank = Symtab.rank cu.Sema.symtab array in
              SM.add array
                (Decomp.reaching_single (Decomp.through_align ~array_rank:rank subs d))
                acc
            else acc)
          aligns fact
      end
      else
        (* DISTRIBUTE applied directly to an array *)
        SM.add decomp (Decomp.reaching_single d) fact
    | Ast.Align { array; target; subs } ->
      let rank = Symtab.rank cu.Sema.symtab array in
      let target_reaching = get_reaching fact target in
      SM.add array
        (map_reaching (Decomp.through_align ~array_rank:rank subs) target_reaching)
        fact
    | _ -> fact)

module Solver = Dataflow.Make (struct
  type t = fact

  let bottom = SM.empty
  let join = fact_join
  let equal = fact_equal
end)

type local_result = {
  cfg : Cfg.t;
  facts : Solver.result;
  aligns : (string * Ast.align_sub list) SM.t;
}

let solve_local ~sink ~(init : fact) (cu : Sema.checked_unit) : local_result =
  let cfg = Cfg.build cu.Sema.unit_.Ast.body in
  let aligns = align_map ~sink cu in
  let facts =
    Solver.solve ~direction:Dataflow.Forward ~init
      ~transfer:(fun _ node fact -> transfer cu aligns node fact)
      cfg
  in
  { cfg; facts; aligns }

(* Fact at the program point *before* statement [sid]. *)
let fact_before (lr : local_result) sid : fact =
  match Cfg.node_of_sid lr.cfg sid with
  | Some n -> lr.facts.Solver.input.(n)
  | None -> SM.empty

let fact_at_exit (lr : local_result) : fact = lr.facts.Solver.input.(Cfg.exit_)

let aligns_of (lr : local_result) = lr.aligns

(* --- Interprocedural phase ------------------------------------------- *)

type t = {
  reaching : (string, fact) Hashtbl.t;  (* proc -> formal array -> reaching *)
  local : (string, local_result) Hashtbl.t;  (* solved with expanded seeds *)
}

(* Expand > placeholders in [fact] using Reaching(P). *)
let expand_tops (reaching_p : fact) (fact : fact) : fact =
  SM.mapi
    (fun v (r : Decomp.reaching) ->
      if r.Decomp.top then
        let inherited = get_reaching reaching_p v in
        Decomp.reaching_join inherited
          { Decomp.decomps = r.Decomp.decomps; top = inherited.Decomp.top }
      else r)
    fact

let compute ~sink (acg : Acg.t) : t =
  let reaching : (string, fact) Hashtbl.t = Hashtbl.create 16 in
  let local : (string, local_result) Hashtbl.t = Hashtbl.create 16 in
  (* Top-down propagation in topological order, which lists every
     procedure: each is solved once, after all its callers. *)
  List.iter
    (fun pname ->
      let reaching_p =
        match Hashtbl.find_opt reaching pname with
        | Some f -> f
        | None -> SM.empty  (* main or unreachable: nothing inherited *)
      in
      (* Solve the local problem with inherited decompositions seeded,
         so call-site facts have tops expanded. *)
      let p = Acg.proc acg pname in
      let init = expand_tops reaching_p (initial_fact p.Acg.cu) in
      let lr = solve_local ~sink ~init p.Acg.cu in
      Hashtbl.replace local pname lr;
      (* Push translated facts into each callee's Reaching. *)
      List.iter
        (fun (cs : Acg.call_site) ->
          let fact = fact_before lr cs.Acg.cs_sid in
          (* formals take their actuals' sets; COMMON arrays are "simply
             copied" (paper Sec. 5.2) *)
          let translated =
            List.fold_left
              (fun acc (name, actual) ->
                match actual with
                | Ast.Var v when Symtab.is_array p.Acg.cu.Sema.symtab v ->
                  SM.add name (get_reaching fact v) acc
                | _ -> acc)
              SM.empty
              (Acg.bindings acg cs.Acg.callee cs.Acg.actuals)
          in
          let existing =
            match Hashtbl.find_opt reaching cs.Acg.callee with
            | Some f -> f
            | None -> SM.empty
          in
          Hashtbl.replace reaching cs.Acg.callee (fact_join existing translated))
        p.Acg.calls)
    (Acg.topo_order acg);
  { reaching; local }

let work t =
  let w = Dataflow.new_work () in
  Hashtbl.iter (fun _ lr -> Solver.count w lr.facts) t.local;
  w

let reaching_of t pname : fact =
  match Hashtbl.find_opt t.reaching pname with Some f -> f | None -> SM.empty

let local_of t pname : local_result =
  match Hashtbl.find_opt t.local pname with
  | Some lr -> lr
  | None -> Diag.error "no reaching-decomposition solution for %s" pname

(* The unique decomposition of array [v] just before statement [sid] in
   procedure [pname]; errors when not unique (cloning should have made it
   unique). *)
let unique_at t pname sid v : Decomp.t option =
  let lr = local_of t pname in
  let r = get_reaching (fact_before lr sid) v in
  match (Decomp.Set.elements r.Decomp.decomps, r.Decomp.top) with
  | [], false -> None
  | [ d ], false -> Some d
  | [], true -> None
  | ds, _ ->
    Diag.error "array %s has %d reaching decompositions at s%d in %s%s" v
      (List.length ds) sid pname
      (if r.Decomp.top then " (plus inherited)" else "")

(* May [v] be distributed (non-replicated) at this point?  Tolerates
   multiple reaching decompositions (used by run-time resolution, which
   resolves ownership dynamically). *)
let maybe_distributed t pname sid v : bool =
  let lr = local_of t pname in
  let r = get_reaching (fact_before lr sid) v in
  r.Decomp.top
  || Decomp.Set.exists (fun d -> not (Decomp.is_replicated d)) r.Decomp.decomps

let pp_proc_reaching ppf (t, pname) =
  let f = reaching_of t pname in
  SM.iter (fun v r -> Fmt.pf ppf "%s: %a@." v Decomp.pp_reaching r) f
