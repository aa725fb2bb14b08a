(* The compiler as an explicit ordered pass list over Pass.ctx.  Each
   pass is idempotent over the context (skips when its artifact is
   already present), carries a pretty-printer for --dump-after and an
   invariant checker for --verify-passes. *)

open Fd_support
open Fd_frontend
open Fd_callgraph
open Fd_machine
open Pass

(* --- Shared helpers ---------------------------------------------------- *)

(* Program units, whether the context started from source or was seeded
   with a checked program. *)
let units_of (c : ctx) : Ast.punit list =
  match (c.parsed, c.checked) with
  | Some prog, _ -> prog
  | None, Some cp -> List.map (fun cu -> cu.Sema.unit_ ) cp.Sema.units
  | None, None -> []

let dup_names names =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun n ->
      if Hashtbl.mem seen n then true
      else begin
        Hashtbl.replace seen n ();
        false
      end)
    names
  |> List.sort_uniq compare

let dup_sids (units : Ast.punit list) =
  let sids = ref [] in
  List.iter
    (fun (u : Ast.punit) -> Ast.iter_stmts (fun s -> sids := s.Ast.sid :: !sids) u.Ast.body)
    units;
  dup_names (List.map string_of_int !sids)

let iter_exprs_arrays f e =
  Ast.iter_exprs_expr
    (fun e' -> match e' with Ast.Ref (a, _) -> f a | _ -> ())
    e

(* Every array name a node statement references: expression references,
   message payload sections, broadcast sections and remap targets. *)
let rec iter_nstmt_arrays f (s : Node.nstmt) =
  let fe = iter_exprs_arrays f in
  let fsec = List.iter (fun (lo, hi, st) -> fe lo; fe hi; fe st) in
  match s with
  | Node.N_assign (a, b) -> fe a; fe b
  | Node.N_do { lo; hi; step; body; _ } ->
    fe lo; fe hi; Option.iter fe step;
    List.iter (iter_nstmt_arrays f) body
  | Node.N_if { cond; then_; else_; _ } ->
    fe cond;
    List.iter (iter_nstmt_arrays f) then_;
    List.iter (iter_nstmt_arrays f) else_
  | Node.N_call (_, args) -> List.iter fe args
  | Node.N_send { dest; parts; _ } ->
    fe dest;
    List.iter (fun (a, sec) -> f a; fsec sec) parts
  | Node.N_recv _ -> ()
  | Node.N_bcast { root; payload; _ } -> (
    fe root;
    match payload with
    | Node.P_section (a, sec) -> f a; fsec sec
    | Node.P_scalar _ -> ())
  | Node.N_remap { array; _ } -> f array
  | Node.N_print args -> List.iter fe args
  | Node.N_return -> ()

let rec count_nstmts (stmts : Node.nstmt list) : int =
  List.fold_left
    (fun acc (s : Node.nstmt) ->
      acc + 1
      +
      match s with
      | Node.N_do { body; _ } -> count_nstmts body
      | Node.N_if { then_; else_; _ } -> count_nstmts then_ + count_nstmts else_
      | _ -> 0)
    0 stmts

let stmt_count units =
  let n = ref 0 in
  List.iter (fun (u : Ast.punit) -> Ast.iter_stmts (fun _ -> incr n) u.Ast.body) units;
  !n

(* --- parse -------------------------------------------------------------- *)

(* Lex and parse the source into program units. *)
let parse_pass =
  { p_name = "parse";
    p_run =
      (fun c ->
        match (c.parsed, c.checked) with
        | Some _, _ | _, Some _ -> ()  (* seeded *)
        | None, None -> (
          match c.source with
          | Some src -> c.parsed <- Some (Parser.parse ?file:c.file ~sink:c.sink src)
          | None -> Diag.error "pipeline: no source text to parse"));
    p_dump =
      (fun c ->
        match units_of c with
        | [] -> None
        | units ->
          Some
            (String.concat "\n"
               (List.map (fun u -> Fmt.str "%a" Ast_printer.pp_punit u) units)));
    p_verify =
      (fun c ->
        let units = units_of c in
        let dup_units =
          dup_names (List.map (fun (u : Ast.punit) -> u.Ast.uname) units)
        in
        (if units = [] then [ "program has no units" ] else [])
        @ List.map (Fmt.str "duplicate unit name %s") dup_units
        @ List.map (Fmt.str "duplicate statement id %s") (dup_sids units)
        @
        match
          List.filter (fun (u : Ast.punit) -> u.Ast.ukind = Ast.Main) units
        with
        | [ _ ] -> []
        | [] -> [ "no main program unit" ]
        | us -> [ Fmt.str "%d main program units" (List.length us) ]);
    p_size = (fun c -> stmt_count (units_of c)) }

(* --- sema --------------------------------------------------------------- *)

(* Symbol tables, type/shape checking, intrinsic resolution. *)
let sema_pass =
  { p_name = "sema";
    p_run =
      (fun c ->
        match c.checked with
        | Some _ -> ()
        | None ->
          (* parse + sema diagnostics batch: everything recorded so far
             (recovered syntax errors included) is raised here, sorted,
             as one [Compile_errors] *)
          let checked = Sema.check ?file:c.file ~sink:c.sink (get_parsed c) in
          Diag.raise_if_errors c.sink;
          c.checked <- Some checked);
    p_dump =
      (fun c ->
        match c.checked with
        | None -> None
        | Some cp ->
          Some
            (String.concat "\n"
               (List.map
                  (fun (cu : Sema.checked_unit) ->
                    let u = cu.Sema.unit_ in
                    let arrays =
                      List.map
                        (fun (name, (info : Symtab.array_info)) ->
                          Fmt.str "%s(%s)" name
                            (String.concat ","
                               (List.map
                                  (fun (lo, hi) -> Fmt.str "%d:%d" lo hi)
                                  info.Symtab.dims)))
                        (Symtab.arrays cu.Sema.symtab)
                    in
                    Fmt.str "%s %s(%s): arrays [%s], commons [%s]"
                      (match u.Ast.ukind with
                      | Ast.Main -> "program"
                      | Ast.Subroutine -> "subroutine")
                      u.Ast.uname
                      (String.concat "," u.Ast.formals)
                      (String.concat "; " arrays)
                      (String.concat ","
                         (List.map fst (Symtab.commons cu.Sema.symtab))))
                  cp.Sema.units)));
    p_verify =
      (fun c ->
        match c.checked with
        | None -> [ "no checked program" ]
        | Some cp ->
          (match Sema.find_unit cp cp.Sema.main with
          | Some _ -> []
          | None -> [ Fmt.str "main unit %s is not in the program" cp.Sema.main ])
          @ List.concat_map
              (fun (cu : Sema.checked_unit) ->
                List.filter_map
                  (fun f ->
                    match Symtab.find cu.Sema.symtab f with
                    | Some _ -> None
                    | None ->
                      Some
                        (Fmt.str "formal %s of %s missing from its symbol table" f
                           cu.Sema.unit_.Ast.uname))
                  cu.Sema.unit_.Ast.formals)
              cp.Sema.units);
    p_size =
      (fun c -> match c.checked with Some cp -> List.length cp.Sema.units | None -> 0) }

(* --- acg ---------------------------------------------------------------- *)

(* Augmented call graph with interprocedural loop context. *)
let acg_pass =
  { p_name = "acg";
    p_run =
      (fun c ->
        match c.acg with
        | Some _ -> ()
        | None ->
          let acg = Acg.build (get_checked c) in
          if Acg.is_recursive acg then Diag.error "recursive programs are not supported";
          c.acg <- Some acg);
    p_dump =
      (fun c ->
        match c.acg with
        | None -> None
        | Some acg ->
          Some
            (Fmt.str "%a\ntopological order: %s" Acg.pp acg
               (String.concat " -> " (Acg.topo_order acg))));
    p_verify =
      (fun c ->
        match c.acg with
        | None -> [ "no call graph" ]
        | Some acg ->
          (if Acg.is_recursive acg then [ "call graph has a cycle over call edges" ]
           else [])
          @ (match Acg.proc acg acg.Acg.main with
            | _ -> []
            | exception _ -> [ Fmt.str "main %s is not a node" acg.Acg.main ])
          @ List.concat_map
              (fun (p : Acg.proc) ->
                List.filter_map
                  (fun (cs : Acg.call_site) ->
                    match Acg.proc acg cs.Acg.callee with
                    | _ -> None
                    | exception _ ->
                      Some
                        (Fmt.str "call site %s -> %s has no callee node"
                           cs.Acg.caller cs.Acg.callee))
                  p.Acg.calls)
              (Acg.procs acg));
    p_size =
      (fun c ->
        match c.acg with
        | Some acg ->
          List.fold_left
            (fun acc (p : Acg.proc) -> acc + 1 + List.length p.Acg.calls)
            0 (Acg.procs acg)
        | None -> 0) }

(* --- reaching_decomps --------------------------------------------------- *)

(* Interprocedural reaching decompositions. *)
let reaching_pass =
  { p_name = "reaching_decomps";
    p_run =
      (fun c ->
        match c.rd with
        | Some _ -> ()
        | None -> c.rd <- Some (Reaching_decomps.compute ~sink:c.sink (get_acg c)));
    p_dump =
      (fun c ->
        match (c.rd, c.acg) with
        | Some rd, Some acg ->
          Some
            (String.concat "\n"
               (List.concat_map
                  (fun (p : Acg.proc) ->
                    (p.Acg.pname ^ ":")
                    :: List.map
                         (fun (v, r) -> Fmt.str "  %s: %a" v Decomp.pp_reaching r)
                         (Reaching_decomps.SM.bindings
                            (Reaching_decomps.reaching_of rd p.Acg.pname)))
                  (Acg.procs acg)))
        | _ -> None);
    p_verify =
      (fun c ->
        match (c.rd, c.acg) with
        | Some rd, Some acg ->
          List.concat_map
            (fun (p : Acg.proc) ->
              (* every procedure must have a local solution... *)
              (match Reaching_decomps.local_of rd p.Acg.pname with
              | _ -> []
              | exception Diag.Compile_error _ ->
                [ Fmt.str "no local reaching-decomposition solution for %s"
                    p.Acg.pname ])
              (* ... and every whole-array actual must have pushed a
                 reaching entry onto the callee's formal *)
              @ List.concat_map
                  (fun (cs : Acg.call_site) ->
                    let callee_fact = Reaching_decomps.reaching_of rd cs.Acg.callee in
                    List.filter_map
                      (fun (formal, actual) ->
                        match actual with
                        | Ast.Var v
                          when Symtab.is_array p.Acg.cu.Sema.symtab v ->
                          if Reaching_decomps.SM.mem formal callee_fact then None
                          else
                            Some
                              (Fmt.str
                                 "%s of %s has no reaching entry for call from %s"
                                 formal cs.Acg.callee cs.Acg.caller)
                        | _ -> None)
                      (Acg.bindings acg cs.Acg.callee cs.Acg.actuals))
                  p.Acg.calls)
            (Acg.procs acg)
        | _ -> [ "no reaching decompositions" ]);
    p_size =
      (fun c ->
        match (c.rd, c.acg) with
        | Some rd, Some acg ->
          List.fold_left
            (fun acc (p : Acg.proc) ->
              acc + Reaching_decomps.SM.cardinal (Reaching_decomps.reaching_of rd p.Acg.pname))
            0 (Acg.procs acg)
        | _ -> 0) }

(* --- side_effects ------------------------------------------------------- *)

(* Interprocedural Gmod/Gref summaries. *)
let side_effects_pass =
  { p_name = "side_effects";
    p_run =
      (fun c ->
        match c.effects with
        | Some _ -> ()
        | None -> c.effects <- Some (Side_effects.compute (get_acg c)));
    p_dump =
      (fun c ->
        match (c.effects, c.acg) with
        | Some eff, Some acg ->
          Some
            (String.concat "\n"
               (List.map
                  (fun (p : Acg.proc) ->
                    Fmt.str "%s: gmod {%s} gref {%s}" p.Acg.pname
                      (String.concat ","
                         (Side_effects.S.elements (Side_effects.gmod eff p.Acg.pname)))
                      (String.concat ","
                         (Side_effects.S.elements (Side_effects.gref eff p.Acg.pname))))
                  (Acg.procs acg)))
        | _ -> None);
    p_verify =
      (fun c ->
        match (c.effects, c.acg) with
        | Some eff, Some acg ->
          List.concat_map
            (fun (p : Acg.proc) ->
              if not (Hashtbl.mem eff p.Acg.pname) then
                [ Fmt.str "no side-effect summary for %s" p.Acg.pname ]
              else
                (* summaries are expressed in P's visible names *)
                Side_effects.S.fold
                  (fun n acc ->
                    match Symtab.find p.Acg.cu.Sema.symtab n with
                    | Some _ -> acc
                    | None ->
                      Fmt.str "side effect of %s names %s, invisible there"
                        p.Acg.pname n
                      :: acc)
                  (Side_effects.appear eff p.Acg.pname)
                  [])
            (Acg.procs acg)
        | _ -> [ "no side-effect summaries" ]);
    p_size =
      (fun c ->
        match (c.effects, c.acg) with
        | Some eff, Some acg ->
          List.fold_left
            (fun acc (p : Acg.proc) ->
              acc + Side_effects.S.cardinal (Side_effects.appear eff p.Acg.pname))
            0 (Acg.procs acg)
        | _ -> 0) }

(* --- cloning ------------------------------------------------------------ *)

(* The analyses a split rebuilt, dumped and checked by their own passes. *)
let replaced_by_split (r : Cloning.result) =
  if r.Cloning.clones_made = 0 then [] else [ acg_pass; reaching_pass; side_effects_pass ]

let unit_names (cp : Sema.checked_program) =
  List.map (fun (cu : Sema.checked_unit) -> cu.Sema.unit_.Ast.uname) cp.Sema.units

(* Procedure cloning for unique reaching decompositions, under the
   optimizing strategies (run-time resolution needs none). *)
let cloning_pass =
  { p_name = "cloning";
    p_run =
      (fun c ->
        match c.clone_result with
        | Some _ -> ()
        | None ->
          let cp = get_checked c and acg = get_acg c in
          let rd = get_rd c and effects = get_effects c in
          let r =
            match c.opts.Options.strategy with
            | Options.Runtime_resolution ->
              { Cloning.cp; origin = Cloning.SM.empty; clones_made = 0; acg; rd; effects }
            | Options.Interproc | Options.Immediate ->
              Cloning.apply ~sink:c.sink cp ~acg ~rd ~effects
          in
          (* the later passes read the analyses of the cloned program *)
          c.clone_result <- Some r;
          c.acg <- Some r.Cloning.acg;
          c.rd <- Some r.Cloning.rd;
          c.effects <- Some r.Cloning.effects);
    p_dump =
      (fun c ->
        match c.clone_result with
        | None -> None
        | Some r ->
          let origins =
            Cloning.SM.bindings r.Cloning.origin
            |> List.map (fun (clone, orig) -> Fmt.str "  %s <- %s" clone orig)
          in
          let replaced =
            List.filter_map
              (fun p ->
                Option.map (Fmt.str "--- %s of the cloned program ---\n%s" p.p_name)
                  (p.p_dump c))
              (replaced_by_split r)
          in
          Some
            (String.concat "\n"
               ((Fmt.str "clones made: %d" r.Cloning.clones_made
                :: ("procedures: " ^ String.concat ", " (unit_names r.Cloning.cp))
                :: origins)
               @ replaced)));
    p_verify =
      (fun c ->
        match c.clone_result with
        | None -> [ "no cloning result" ]
        | Some r ->
          let names = unit_names r.Cloning.cp in
          List.map (Fmt.str "cloned procedure name %s is not unique") (dup_names names)
          @ List.map (Fmt.str "duplicate statement id %s in the cloned program")
              (dup_sids (List.map (fun cu -> cu.Sema.unit_) r.Cloning.cp.Sema.units))
          @ Cloning.SM.fold
              (fun clone _orig acc ->
                if List.mem clone names then acc
                else Fmt.str "clone %s missing from the cloned program" clone :: acc)
              r.Cloning.origin []
          @ List.concat_map (fun p -> p.p_verify c) (replaced_by_split r));
    p_size =
      (fun c ->
        match c.clone_result with
        | Some r -> List.length r.Cloning.cp.Sema.units
        | None -> 0) }

(* --- local_summaries ---------------------------------------------------- *)

(* Edit-time local summaries and interface digests. *)
let local_summaries_pass =
  { p_name = "local_summaries";
    p_run =
      (fun c ->
        match c.summaries with
        | Some _ -> ()
        | None ->
          c.summaries <-
            Some
              (List.map
                 (fun (p : Acg.proc) -> (p.Acg.pname, Local_summary.of_unit p.Acg.cu))
                 (Acg.procs (get_acg c))));
    p_dump =
      (fun c ->
        match c.summaries with
        | None -> None
        | Some ss ->
          Some
            (String.concat "\n"
               (List.map (fun (_, s) -> Fmt.str "%a" Local_summary.pp s) ss)));
    p_verify =
      (fun c ->
        match (c.summaries, c.acg) with
        | Some ss, Some acg ->
          List.concat_map
            (fun (p : Acg.proc) ->
              match List.assoc_opt p.Acg.pname ss with
              | None -> [ Fmt.str "no local summary for %s" p.Acg.pname ]
              | Some s ->
                (if String.equal s.Local_summary.proc p.Acg.pname then []
                 else [ Fmt.str "summary of %s names %s" p.Acg.pname s.Local_summary.proc ])
                @
                if s.Local_summary.formals = p.Acg.cu.Sema.unit_.Ast.formals then []
                else [ Fmt.str "summary formals of %s disagree with the unit" p.Acg.pname ])
            (Acg.procs acg)
        | _ -> [ "no local summaries" ]);
    p_size =
      (fun c -> match c.summaries with Some ss -> List.length ss | None -> 0) }

(* --- codegen ------------------------------------------------------------ *)

(* Per-procedure SPMD code generation with delayed instantiation. *)
let codegen_pass =
  { p_name = "codegen";
    p_run =
      (fun c ->
        match c.compiled with
        | Some _ -> ()
        | None ->
          c.compiled <-
            Some (Codegen.compile_analyzed ~sink:c.sink c.opts (get_clone_result c)));
    p_dump =
      (fun c ->
        match c.compiled with
        | None -> None
        | Some compiled ->
          Some (Fmt.str "%a" Node.pp_program compiled.Codegen.program));
    p_verify =
      (fun c ->
        match c.compiled with
        | None -> [ "no compiled program" ]
        | Some compiled ->
          let prog = compiled.Codegen.program in
          let common =
            List.map (fun (a : Node.array_decl) -> a.Node.ad_name) prog.Node.n_common_arrays
          in
          let dup_procs =
            dup_names (List.map (fun (np : Node.nproc) -> np.Node.np_name) prog.Node.n_procs)
          in
          (match Node.find_proc prog prog.Node.n_main with
          | Some _ -> []
          | None -> [ Fmt.str "main procedure %s missing from the program" prog.Node.n_main ])
          @ List.map (Fmt.str "compiled procedure name %s is not unique") dup_procs
          @ List.concat_map
              (fun (np : Node.nproc) ->
                let declared =
                  List.map (fun (a : Node.array_decl) -> a.Node.ad_name) np.Node.np_arrays
                  @ common
                in
                let bad = ref [] in
                List.iter
                  (iter_nstmt_arrays (fun a ->
                       if not (List.mem a declared) && not (List.mem a !bad) then
                         bad := a :: !bad))
                  np.Node.np_body;
                List.rev_map
                  (fun a ->
                    Fmt.str "procedure %s references undeclared array %s"
                      np.Node.np_name a)
                  !bad)
              prog.Node.n_procs);
    p_size =
      (fun c ->
        match c.compiled with
        | Some compiled ->
          List.fold_left
            (fun acc (np : Node.nproc) -> acc + count_nstmts np.Node.np_body)
            0 compiled.Codegen.program.Node.n_procs
        | None -> 0) }

(* --- The pipeline ------------------------------------------------------- *)

let passes =
  [ parse_pass; sema_pass; acg_pass; reaching_pass; side_effects_pass;
    cloning_pass; local_summaries_pass; codegen_pass ]

let pass_names = List.map (fun p -> p.p_name) passes

let find_pass name = List.find_opt (fun p -> String.equal p.p_name name) passes

let empty_ctx ?(sink = Diag.sink ()) opts file source =
  { opts; sink; file; source; parsed = None; checked = None; clone_result = None;
    acg = None; rd = None; effects = None; summaries = None; compiled = None }

let of_source ?sink ?(opts = Options.default) ?file src =
  empty_ctx ?sink opts file (Some src)

let of_checked ?sink ?(opts = Options.default) (cp : Sema.checked_program) =
  let c = empty_ctx ?sink opts None None in
  c.checked <- Some cp;
  c

let run_pass ?(verify = false) ?tracer ?epoch (p : Pass.t) (c : ctx) : entry =
  let t0 = Unix.gettimeofday () in
  p.p_run c;
  let dt = Unix.gettimeofday () -. t0 in
  (* Pass spans reuse the timing already taken for the report; [at] is
     wall-clock relative to [epoch] (the pipeline start) so compiler
     spans start near zero like the machine's virtual clock does. *)
  (match tracer with
  | Some tr ->
    let base = match epoch with Some e -> e | None -> t0 in
    Fd_trace.Trace.emit tr ~kind:Fd_trace.Trace.Span ~at:(t0 -. base) ~proc:(-1)
      ~dur:dt ~label:p.p_name ()
  | None -> ());
  let status =
    if not verify then I_not_checked
    else match p.p_verify c with [] -> I_ok | msgs -> I_violated msgs
  in
  { e_pass = p.p_name; e_time = dt; e_size = p.p_size c; e_status = status }

let run ?(verify = false) ?tracer ?(dump_after = [])
    ?(dump = fun ~pass text -> Fmt.pr "=== after %s ===@.%s@." pass text)
    (c : ctx) : report =
  List.iter
    (fun name ->
      if find_pass name = None then
        Diag.error "pipeline: unknown pass %s (have: %s)" name
          (String.concat ", " pass_names))
    dump_after;
  let epoch = Unix.gettimeofday () in
  List.map
    (fun p ->
      let entry = run_pass ~verify ?tracer ~epoch p c in
      if List.mem p.p_name dump_after then
        (match p.p_dump c with
        | Some text -> dump ~pass:p.p_name text
        | None -> ());
      entry)
    passes

let report_to_json (r : report) : Json.t =
  let entry (e : entry) =
    Json.Obj
      [ ("name", Json.Str e.e_pass);
        ("ms", Json.Float (e.e_time *. 1e3));
        ("size", Json.Int e.e_size);
        ( "invariants",
          Json.Str
            (match e.e_status with
            | I_not_checked -> "not-checked"
            | I_ok -> "ok"
            | I_violated _ -> "violated") );
        ( "violations",
          Json.List
            (match e.e_status with
            | I_violated msgs -> List.map (fun m -> Json.Str m) msgs
            | _ -> []) ) ]
  in
  Json.Obj
    [ ("passes", Json.List (List.map entry r));
      ("total_ms", Json.Float (List.fold_left (fun acc e -> acc +. e.e_time) 0.0 r *. 1e3));
      ("ok", Json.Bool (report_ok r)) ]

let pp_report ppf (r : report) =
  List.iter
    (fun e ->
      Fmt.pf ppf "%a@." Pass.pp_entry e;
      match e.e_status with
      | I_violated msgs -> List.iter (fun m -> Fmt.pf ppf "    %s@." m) msgs
      | _ -> ())
    r;
  Fmt.pf ppf "%-18s %9.3f ms@." "total"
    (List.fold_left (fun acc e -> acc +. e.e_time) 0.0 r *. 1e3)
