(* Source-level Fortran D placement lints, run on the checked AST.

   Sema already rejects malformed ALIGN/DISTRIBUTE (unknown targets,
   rank mismatches); this pass looks for placements that are
   *well-formed but inert or suspicious*:

   - a DECOMPOSITION that is declared but never DISTRIBUTEd — every
     array aligned to it silently stays replicated;
   - a DISTRIBUTE of a decomposition to which no array is ever aligned
     (directly or through an alignment chain) — the distribution
     affects nothing;
   - an array reference at a point no decomposition reaches, for an
     array that IS aligned later in the unit ("use before placement") —
     detected through the [reaching] callback, which the driver backs
     with the interprocedural reaching-decompositions analysis;
   - a REALIGN/REDISTRIBUTE provably identical to the placement already
     reaching it ("no-op remap") — the executable statement triggers a
     barrier and a remap event at run time but moves no data.  Found by
     a forward {!Dataflow} solve over the unit's CFG; joins (IF
     branches, DO back edges) forget any placement the paths disagree
     on, so the lint never flags a remap that could be live on some
     path, and a unit entry is always unknown (caller-dependent), so
     fig15-style cross-procedure redistributes are never flagged. *)

open Fd_frontend
open Fd_analysis

(* [reaching ~uname ~sid array] answers whether any decomposition
   reaches [array] at the program point before statement [sid] of unit
   [uname]; absent callback = analysis unavailable, lint skipped. *)
type reaching_hook = uname:string -> sid:int -> string -> bool

(* The last DISTRIBUTE of each name and ALIGN of each array, keyed by
   the keyword and the name. *)
module Keyed = Map.Make (struct
  type t = string * string

  let compare = compare
end)

module Placed =
  Dataflow.Make
    (Dataflow.Agree (Keyed)
       (struct
         type t = Ast.stmt_kind

         let equal = ( = )
       end))

let unit_findings ?reaching (cu : Sema.checked_unit) : Finding.t list =
  let u = cu.Sema.unit_ in
  let findings = ref [] in
  let add ?loc ?proc sev kind msg =
    findings := Finding.make ?loc ?proc sev kind msg :: !findings
  in
  (* declared decompositions *)
  let decomps = Hashtbl.create 4 in
  List.iter
    (function
      | Ast.Dcl_decomposition ds ->
        List.iter (fun (name, _) -> Hashtbl.replace decomps name ()) ds
      | _ -> ())
    u.Ast.decls;
  (* executable placements *)
  let aligns = ref [] (* (array, target, loc) *)
  and distributed = Hashtbl.create 4 (* name -> loc *) in
  Ast.iter_stmts
    (fun s ->
      match s.Ast.kind with
      | Ast.Align { array; target; subs = _ } ->
        aligns := (array, target, s.Ast.loc) :: !aligns
      | Ast.Distribute { decomp; dists = _ } ->
        if not (Hashtbl.mem distributed decomp) then
          Hashtbl.replace distributed decomp s.Ast.loc
      | _ -> ())
    u.Ast.body;
  let aligns = List.rev !aligns in
  (* transitive set of names whose placement chains end at [target] *)
  let rec chains_to target name seen =
    (not (List.mem name seen))
    && List.exists
         (fun (a, t, _) ->
           a = name && (t = target || chains_to target t (name :: seen)))
         aligns
  in
  (* 1. declared but never distributed *)
  Hashtbl.iter
    (fun d () ->
      if not (Hashtbl.mem distributed d) then begin
        let first_align =
          List.find_opt (fun (_, t, _) -> t = d) aligns
        in
        let loc =
          match first_align with Some (_, _, l) -> l | None -> u.Ast.uloc
        in
        let aligned =
          List.filter_map
            (fun (a, t, _) -> if t = d then Some a else None)
            aligns
        in
        add ~loc Finding.Warning "undistributed-decomposition"
          (Fmt.str
             "decomposition %s in %s is declared but never distributed%s"
             d u.Ast.uname
             (match aligned with
             | [] -> ""
             | l ->
               Fmt.str " — %s stay%s replicated" (String.concat ", " l)
                 (match l with [ _ ] -> "s" | _ -> "")))
      end)
    decomps;
  (* 2. distributed but nothing aligned to it *)
  Hashtbl.iter
    (fun d loc ->
      if Hashtbl.mem decomps d
         && not (List.exists (fun (a, _, _) -> chains_to d a []) aligns)
      then
        add ~loc Finding.Warning "distribute-without-align"
          (Fmt.str
             "DISTRIBUTE %s in %s affects no arrays — nothing is aligned \
              to it"
             d u.Ast.uname))
    distributed;
  (* 4. REALIGN/REDISTRIBUTE identical to the placement reaching it;
     the unit entry knows nothing (the caller decides). *)
  let pp_dist = function
    | Ast.Block -> "block"
    | Ast.Cyclic -> "cyclic"
    | Ast.Block_cyclic k -> Fmt.str "cyclic(%d)" k
    | Ast.Star -> ":"
  in
  let cfg = Cfg.build u.Ast.body in
  (* each placement's key, and how a no-op one reads *)
  let placed =
    Array.init (Cfg.length cfg) (fun i ->
        match Cfg.node cfg i with
        | Cfg.Stmt { Ast.kind = Ast.Distribute { decomp; dists }; _ } ->
          Some
            ( ("DISTRIBUTE", decomp),
              Fmt.str "DISTRIBUTE %s(%s) in %s matches the distribution" decomp
                (String.concat ", " (List.map pp_dist dists))
                u.Ast.uname )
        | Cfg.Stmt { Ast.kind = Ast.Align { array; target; _ }; _ } ->
          Some
            ( ("ALIGN", array),
              Fmt.str "ALIGN %s with %s in %s matches the alignment" array target u.Ast.uname )
        | _ -> None)
  in
  let transfer i node fact =
    match (node, fact, placed.(i)) with
    | Cfg.Stmt s, Some m, Some (k, _) -> Some (Keyed.add k s.Ast.kind m)
    | _ -> fact
  in
  let reach = Placed.solve ~direction:Dataflow.Forward ~init:(Some Keyed.empty) ~transfer cfg in
  Array.iteri
    (fun i p ->
      match (Cfg.node cfg i, reach.Placed.input.(i), p) with
      | Cfg.Stmt s, Some m, Some (k, text) when Keyed.find_opt k m = Some s.Ast.kind ->
        add ~loc:s.Ast.loc Finding.Warning "noop-remap"
          (text ^ " already reaching it — the remap moves no data")
      | _ -> ())
    placed;
  (* 3. use before placement (needs the reaching-decompositions hook) *)
  (match reaching with
  | None -> ()
  | Some hook ->
    let aligned_arrays =
      List.sort_uniq compare (List.map (fun (a, _, _) -> a) aligns)
    in
    if aligned_arrays <> [] then begin
      let reported = Hashtbl.create 4 in
      Ast.iter_stmts
        (fun s ->
          Ast.iter_exprs_stmt
            (fun e ->
              match e with
              | Ast.Ref (name, _)
                when List.mem name aligned_arrays
                     && Symtab.is_array cu.Sema.symtab name
                     && not (Hashtbl.mem reported name)
                     && not (hook ~uname:u.Ast.uname ~sid:s.Ast.sid name) ->
                Hashtbl.replace reported name ();
                add ~loc:s.Ast.loc Finding.Warning "use-before-placement"
                  (Fmt.str
                     "array %s is referenced before any decomposition \
                      reaches it (it is aligned later in %s)"
                     name u.Ast.uname)
              | _ -> ())
            s)
        u.Ast.body
    end);
  List.rev !findings

let run ?reaching (cp : Sema.checked_program) : Finding.t list =
  Finding.sort (List.concat_map (unit_findings ?reaching) cp.Sema.units)
