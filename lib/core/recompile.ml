(* Recompilation analysis (paper Section 8 and the ParaScope 3-phase
   scheme): after an edit, only procedures whose interprocedural *inputs*
   changed need recompiling.  A procedure's inputs are:

     - its own source (local summary digest),
     - the decompositions reaching it from callers,
     - every callee's caller-visible export (constraint, pending
       communication, DecompBefore/After, mod-scalars, value kills),
     - every callee's interface (formals, array shapes, side effects).

   [artifacts] captures digests of all of these for one program version;
   [must_recompile ~old_ ~new_] diffs two versions. *)

open Fd_frontend
open Fd_callgraph

module SM = Map.Make (String)
module SS = Set.Make (String)

type artifacts = {
  a_source : string SM.t;      (* proc -> source digest *)
  a_interface : string SM.t;   (* proc -> Local_summary interface digest *)
  a_reaching : string SM.t;    (* proc -> digest of Reaching(P) *)
  a_export : string SM.t;      (* proc -> digest of its export record *)
  a_callees : string list SM.t;
}

let digest s = Digest.to_hex (Digest.string s)

let artifacts ?sink (cp : Sema.checked_program) : artifacts =
  (* One pipeline run produces every input we digest: the ACG, reaching
     decompositions and local summaries come straight from the pass
     context instead of being recomputed after the fact. *)
  let ctx = Pipeline.of_checked ?sink cp in
  ignore (Pipeline.run ctx);
  let compiled = Pass.get_compiled ctx in
  let acg = Pass.get_acg ctx in
  let rd = Pass.get_rd ctx in
  let summaries = Pass.get_summaries ctx in
  let origin name = Cloning.origin_of compiled.Codegen.clone_result name in
  (* aggregate per *original* procedure name (clones fold back in) *)
  let add m k v = SM.update k (function None -> Some [ v ] | Some l -> Some (v :: l)) m in
  let source = ref SM.empty
  and interface = ref SM.empty
  and reaching = ref SM.empty
  and export = ref SM.empty
  and callees = ref SM.empty in
  List.iter
    (fun (p : Acg.proc) ->
      let name = origin p.Acg.pname in
      let summary =
        match List.assoc_opt p.Acg.pname summaries with
        | Some s -> s
        | None -> Local_summary.of_unit p.Acg.cu
      in
      source := add !source name summary.Local_summary.source_digest;
      interface := add !interface name (Local_summary.interface_digest summary);
      reaching :=
        add !reaching name
          (Fmt.str "%a" Reaching_decomps.pp_proc_reaching (rd, p.Acg.pname));
      (match Hashtbl.find_opt compiled.Codegen.state.Codegen.exports p.Acg.pname with
      | Some ex -> export := add !export name (Exports.digest ex)
      | None -> ());
      callees :=
        add !callees name
          (String.concat "," (List.map origin (Acg.callees_of acg p.Acg.pname))))
    (Acg.procs acg);
  let fold m = SM.map (fun parts -> digest (String.concat "#" (List.sort compare parts))) m in
  { a_source = fold !source;
    a_interface = fold !interface;
    a_reaching = fold !reaching;
    a_export = fold !export;
    a_callees =
      SM.map
        (fun parts ->
          List.concat_map (String.split_on_char ',') parts
          |> List.filter (fun s -> s <> "")
          |> List.sort_uniq compare)
        !callees }

let get m k = SM.find_opt k m

let procs_of a = SM.bindings a.a_source |> List.map fst

(* Procedures that must be recompiled going from [old_] to [new_]. *)
let must_recompile ~(old_ : artifacts) ~(new_ : artifacts) : string list =
  let changed field p = get (field old_) p <> get (field new_) p in
  List.filter
    (fun p ->
      changed (fun a -> a.a_source) p
      || changed (fun a -> a.a_reaching) p
      || (match get new_.a_callees p with
         | Some cs ->
           List.exists
             (fun c ->
               changed (fun a -> a.a_export) c
               || changed (fun a -> a.a_interface) c)
             cs
         | None -> true))
    (procs_of new_)

(* Convenience: which procedures recompile after replacing one unit's
   source text? *)
let after_edit ?sink ~(before : string) ~(after : string) () :
    string list * int =
  let old_ = artifacts ?sink (Sema.check_source before) in
  let new_ = artifacts ?sink (Sema.check_source after) in
  let r = must_recompile ~old_ ~new_ in
  (r, List.length (procs_of new_))
