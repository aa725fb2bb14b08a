(* Overlap analysis (paper Section 5.6, Figure 13).

   The local phase records constant subscript offsets per array dimension
   (A(v+c) contributes offset c).  Interprocedural propagation merges
   offsets bottom-up through formal/actual bindings to *estimate* the
   maximal overlap regions.  Code generation then determines the overlap
   *actually* needed: the shift reads it sent messages for
   ([Codegen.shift]), propagated the same way.  The paper expects the
   estimate to be a superset of the actual need; the experiment table
   (E7) reports both. *)

open Fd_frontend
open Fd_analysis
open Fd_callgraph

module SM = Map.Make (String)

type offsets = { neg : int; pos : int }  (* widths below / above the local block *)

let no_offsets = { neg = 0; pos = 0 }

let merge a b = { neg = max a.neg b.neg; pos = max a.pos b.pos }

let add_offset o c = if c >= 0 then { o with pos = max o.pos c } else { o with neg = max o.neg (-c) }

let add_key key c acc =
  let cur = match SM.find_opt key acc with Some o -> o | None -> no_offsets in
  SM.add key (add_offset cur c) acc

let key array dim = array ^ "." ^ string_of_int dim

(* (array, dim) -> offsets for one procedure, from local references. *)
let local_offsets (cu : Sema.checked_unit) : offsets SM.t =
  let refs = Sections.collect cu.Sema.symtab cu.Sema.unit_.Ast.body in
  List.fold_left
    (fun acc (r : Sections.ref_info) ->
      List.fold_left
        (fun acc (dim, sub) ->
          match sub with
          | None -> acc
          | Some a -> (
            (* offset relative to an enclosing loop variable *)
            match
              List.find_opt (fun l -> Affine.coeff_of l.Sections.lvar a = 1) r.Sections.loops
            with
            | Some l -> (
              match Affine.const_value (Affine.drop_var l.Sections.lvar a) with
              | Some c when c <> 0 -> add_key (key r.Sections.array dim) c acc
              | _ -> acc)
            | None -> acc))
        acc
        (List.mapi (fun i s -> (i, s)) r.Sections.subs))
    SM.empty refs

(* Bottom-up interprocedural propagation: translate each callee's offsets
   on formal and COMMON arrays into the caller's names. *)
let propagate (acg : Acg.t) (local : offsets SM.t SM.t) : offsets SM.t SM.t =
  let table = ref SM.empty in
  List.iter
    (fun pname ->
      let p = Acg.proc acg pname in
      let own =
        match SM.find_opt pname local with Some m -> m | None -> SM.empty
      in
      let merged =
        List.fold_left
          (fun acc (cs : Acg.call_site) ->
            match SM.find_opt cs.Acg.callee !table with
            | None -> acc
            | Some callee_offsets ->
              let bindings = Acg.bindings acg cs.Acg.callee cs.Acg.actuals in
              SM.fold
                (fun key o acc ->
                  match String.rindex_opt key '.' with
                  | None -> acc
                  | Some i -> (
                    let name = String.sub key 0 i in
                    let dim = String.sub key (i + 1) (String.length key - i - 1) in
                    (* callee-local arrays have no binding *)
                    match List.assoc_opt name bindings with
                    | Some (Ast.Var actual) ->
                      let key' = actual ^ "." ^ dim in
                      let cur =
                        match SM.find_opt key' acc with
                        | Some o' -> o'
                        | None -> no_offsets
                      in
                      SM.add key' (merge cur o) acc
                    | _ -> acc))
                callee_offsets acc)
          own p.Acg.calls
      in
      table := SM.add pname merged !table)
    (Acg.reverse_topo_order acg)

  ;
  !table

type row = {
  ov_proc : string;
  ov_array : string;
  ov_dim : int;  (* 1-based for display *)
  ov_estimated : offsets;
  ov_actual : offsets;
}

(* Full overlap report over the compiled program: estimated (all
   constant offsets, all dims, propagated through the cloned program's
   ACG) vs actual (the shifts codegen sent for, propagated the same
   way). *)
let analyze (c : Codegen.compiled) : row list =
  let acg = c.Codegen.clone_result.Cloning.acg in
  let locals_est =
    List.fold_left
      (fun acc (p : Acg.proc) -> SM.add p.Acg.pname (local_offsets p.Acg.cu) acc)
      SM.empty (Acg.procs acg)
  in
  let locals_act =
    List.fold_left
      (fun acc (sh : Codegen.shift) ->
        let own = Option.value (SM.find_opt sh.Codegen.sh_proc acc) ~default:SM.empty in
        SM.add sh.Codegen.sh_proc
          (add_key (key sh.Codegen.sh_array sh.Codegen.sh_dim) sh.Codegen.sh_offset own)
          acc)
      SM.empty c.Codegen.state.Codegen.shifts
  in
  let est = propagate acg locals_est in
  let act = propagate acg locals_act in
  SM.fold
    (fun pname offsets acc ->
      SM.fold
        (fun key o acc ->
          match String.rindex_opt key '.' with
          | None -> acc
          | Some i ->
            let array = String.sub key 0 i in
            let dim = int_of_string (String.sub key (i + 1) (String.length key - i - 1)) in
            let actual =
              match SM.find_opt pname act with
              | Some m -> (
                match SM.find_opt key m with Some o -> o | None -> no_offsets)
              | None -> no_offsets
            in
            { ov_proc = pname; ov_array = array; ov_dim = dim + 1;
              ov_estimated = o; ov_actual = actual }
            :: acc)
        offsets acc)
    est []
  |> List.sort compare

let pp_row ppf r =
  Fmt.pf ppf "%-10s %-6s dim %d   estimated [-%d,+%d]   actual [-%d,+%d]" r.ov_proc
    r.ov_array r.ov_dim r.ov_estimated.neg r.ov_estimated.pos r.ov_actual.neg
    r.ov_actual.pos
