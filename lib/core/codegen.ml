(* Interprocedural code generation (paper Section 5, Figures 9/11/13/17).

   Procedures are compiled exactly once, in reverse topological order over
   the augmented call graph.  Each compilation consumes the exports of its
   callees (computation-partition constraints, delayed communication,
   delayed remapping) and produces its own export record for callers.

   Two strategies share this module: [Interproc] (full delayed
   instantiation) and [Immediate] (the paper's Figure 12 baseline, where
   guards, communication and remapping are instantiated inside each
   procedure).  Statements outside the recognized patterns fall back to
   run-time resolution locally, which is always sound. *)

open Fd_support
open Fd_frontend
open Fd_analysis
open Fd_callgraph
open Fd_machine

module SS = Set.Make (String)
module SM = Map.Make (String)

let int_e n = Ast.Int_const n
let myp = Fit.myp

(* --- Program-level state ---------------------------------------------- *)

type state = {
  opts : Options.t;
  sink : Diag.sink;  (* per-run diagnostic sink for codegen warnings *)
  acg : Acg.t;
  rd : Reaching_decomps.t;
  effects : Side_effects.t;
  mutable counter : int;  (* fresh tags / sites / temporaries *)
  exports : (string, Exports.t) Hashtbl.t;
  mutable partition_log : (string * string) list;
      (* (procedure, human-readable loop-partition decision), in
         compilation order *)
  pseudo_sids : Dynamic_decomp.sids;  (* ids of this compile's remap$ statements *)
}

let fresh st =
  st.counter <- st.counter + 1;
  st.counter

let export_of st name =
  match Hashtbl.find_opt st.exports name with
  | Some e -> e
  | None -> Exports.empty name

(* --- Per-procedure context --------------------------------------------- *)

type proc_ctx = {
  st : state;
  cu : Sema.checked_unit;
  pname : string;
  symtab : Symtab.t;
  formals : string list;
  refs : Sections.ref_info list;
  override : Decomp.t SM.t;  (* formals whose Before-remap was exported *)
  (* analysis results filled by pre-passes *)
  mutable partitions : (int * partition) list;      (* loop sid -> decision *)
  mutable fallbacks : int list;                     (* stmt sids compiled via run-time resolution *)
  mutable placements : (int * request) list;        (* emit request before stmt sid *)
  mutable pending_out : Exports.pending list;       (* delayed to callers *)
  mutable proc_constraint : Exports.constraint_;
  mutable mod_scalars : SS.t;
}

and partition =
  | Unpart
  | Part_concrete of { sets : Iset.t array; p_guard_info : guard_info }
  | Part_symbolic of { layout : Layout.t; dim : int; shift : int }
      (* loop bounds are run-time expressions; the loop distributes via
         symbolic block clipping or cyclic alignment *)

and guard_info = { g_array : string; g_dim : int; g_layout : Layout.t }

and request =
  | Rq_shift of {
      rs_array : string;
      rs_layout : Layout.t;
      rs_dim : int;
      rs_need : Iset.t array;
      rs_other : Comm.other_dim list;
    }
  | Rq_bcast of {
      rb_array : string;
      rb_layout : Layout.t;
      rb_dim : int;
      rb_index : Ast.expr;
      rb_other : Comm.other_dim list;
    }

(* --- Environment helpers ----------------------------------------------- *)

let is_pseudo_sid sid = sid >= Dynamic_decomp.pseudo_sid_base

let decomp_of ctx sid name : Decomp.t =
  match SM.find_opt name ctx.override with
  | Some d -> d
  | None -> (
    let rank = Symtab.rank ctx.symtab name in
    if is_pseudo_sid sid then Decomp.replicated rank
    else
      match Reaching_decomps.unique_at ctx.st.rd ctx.pname sid name with
      | Some d -> d
      | None -> Decomp.replicated rank)

let bounds_of ctx name : (int * int) list =
  match Symtab.array_info ctx.symtab name with
  | Some info -> info.Symtab.dims
  | None -> Diag.error "array %s not declared in %s" name ctx.pname

(* Distributed dimension and layout of [name] at [sid]; None if replicated. *)
let dist_info ctx sid name : (int * Layout.t) option =
  if not (Symtab.is_array ctx.symtab name) then None
  else
    let d = decomp_of ctx sid name in
    match Decomp.dist_dim d with
    | None -> None
    | Some (dim, _) ->
      let layout =
        Decomp.layout_of d ~bounds:(bounds_of ctx name) ~nprocs:ctx.st.opts.Options.nprocs
      in
      Some (dim, layout)

(* Affine form over exportable scalars only (plus constants): formal
   scalars translate through bindings, COMMON scalars by identity. *)
let formal_affine ctx (e : Ast.expr) : Affine.t option =
  match Affine.of_expr ctx.symtab e with
  | Some a
    when List.for_all
           (fun v ->
             (List.mem v ctx.formals || Symtab.is_common ctx.symtab v)
             &&
             match Symtab.find ctx.symtab v with
             | Some (Symtab.Scalar _) -> true
             | _ -> false)
           (Affine.vars a) ->
    Some a
  | _ -> None

let expr_equal a b =
  String.equal (Ast_printer.expr_to_string a) (Ast_printer.expr_to_string b)

(* Affine over names -> expression substituting actuals for formals. *)
let subst_affine (bindings : Ast.expr SM.t) (a : Affine.t) : Ast.expr option =
  let ok = ref true in
  let terms =
    List.map
      (fun v ->
        match SM.find_opt v bindings with
        | Some e -> (Affine.coeff_of v a, e)
        | None ->
          ok := false;
          (0, int_e 0))
      (Affine.vars a)
  in
  if not !ok then None
  else begin
    let base = int_e (Affine.constant a) in
    let add acc (c, e) =
      if c = 0 then acc
      else
        let t = if c = 1 then e else Ast.Bin (Ast.Mul, int_e c, e) in
        match acc with
        | Ast.Int_const 0 -> t
        | _ -> Ast.Bin (Ast.Add, acc, t)
    in
    Some (List.fold_left add base terms)
  end

(* --- Write classification ---------------------------------------------- *)

type wclass =
  | W_replicated
  | W_by_loop of { wl_lsid : int; wl_array : string; wl_dim : int; wl_shift : int;
                   wl_layout : Layout.t; wl_index : Ast.expr }
  | W_owner of { wo_array : string; wo_dim : int; wo_index : Ast.expr;
                 wo_layout : Layout.t }
  | W_fallback

(* Classify the store of an assignment given the enclosing loops. *)
let classify_store ctx (loops : Sections.loop_ctx list) sid (lhs : Ast.expr) : wclass =
  match lhs with
  | Ast.Var _ -> W_replicated
  | Ast.Ref (name, subs) -> (
    match dist_info ctx sid name with
    | None -> W_replicated
    | Some (dim, layout) -> (
      let sub = List.nth subs dim in
      match Affine.of_expr ctx.symtab sub with
      | None -> W_fallback
      | Some a -> (
        let loop_vars =
          List.filter (fun l -> Affine.coeff_of l.Sections.lvar a <> 0) loops
        in
        match loop_vars with
        | [] -> W_owner { wo_array = name; wo_dim = dim; wo_index = sub; wo_layout = layout }
        | [ l ] ->
          let c = Affine.coeff_of l.Sections.lvar a in
          let rest = Affine.drop_var l.Sections.lvar a in
          if c = 1 && Affine.is_const rest then
            W_by_loop
              { wl_lsid = l.Sections.lsid; wl_array = name; wl_dim = dim;
                wl_shift = Affine.constant rest; wl_layout = layout; wl_index = sub }
          else W_fallback
        | _ -> W_fallback)))
  | _ -> W_fallback

(* Classify a call through its callee's exported constraint. *)
let classify_call ctx (loops : Sections.loop_ctx list) sid callee (actuals : Ast.expr list)
    : wclass =
  let ex = export_of ctx.st callee in
  match ex.Exports.ex_constraint with
  | Exports.C_none -> W_replicated
  | Exports.C_owner { co_array; co_dim; co_index } -> (
    let callee_cu = (Acg.proc ctx.st.acg callee).Acg.cu in
    let callee_formals = callee_cu.Sema.unit_.Ast.formals in
    let bindings =
      List.fold_left2
        (fun acc f a -> SM.add f a acc)
        SM.empty callee_formals actuals
    in
    (* COMMON names translate by identity *)
    let bindings =
      List.fold_left
        (fun acc (name, _) ->
          if SM.mem name acc then acc else SM.add name (Ast.Var name) acc)
        bindings
        (Symtab.commons callee_cu.Sema.symtab)
    in
    match SM.find_opt co_array bindings with
    | Some (Ast.Var actual_array) when Symtab.is_array ctx.symtab actual_array -> (
      match dist_info ctx sid actual_array with
      | None ->
        (* the callee was compiled expecting a distribution; cloning
           guarantees consistency, so this means replicated: run everywhere *)
        W_replicated
      | Some (dim, layout) -> (
        if dim <> co_dim then W_fallback
        else
          match subst_affine (SM.map (fun e -> e) bindings) co_index with
          | None -> W_fallback
          | Some index_expr -> (
            (* affine in an enclosing loop var? *)
            match Affine.of_expr ctx.symtab index_expr with
            | Some a -> (
              let lvs =
                List.filter (fun l -> Affine.coeff_of l.Sections.lvar a <> 0) loops
              in
              match lvs with
              | [ l ]
                when Affine.coeff_of l.Sections.lvar a = 1
                     && Affine.is_const (Affine.drop_var l.Sections.lvar a) ->
                W_by_loop
                  { wl_lsid = l.Sections.lsid; wl_array = actual_array; wl_dim = dim;
                    wl_shift = Affine.constant (Affine.drop_var l.Sections.lvar a);
                    wl_layout = layout; wl_index = index_expr }
              | [] ->
                W_owner
                  { wo_array = actual_array; wo_dim = dim; wo_index = index_expr;
                    wo_layout = layout }
              | _ ->
                W_owner
                  { wo_array = actual_array; wo_dim = dim; wo_index = index_expr;
                    wo_layout = layout })
            | None ->
              W_owner
                { wo_array = actual_array; wo_dim = dim; wo_index = index_expr;
                  wo_layout = layout })))
    | _ -> W_fallback)

(* Classification of any statement's computation partition. *)
let classify_stmt ctx loops (s : Ast.stmt) : wclass =
  match s.Ast.kind with
  | Ast.Assign (lhs, _) -> classify_store ctx loops s.Ast.sid lhs
  | Ast.Call (callee, actuals) when Dynamic_decomp.as_remap s = None ->
    classify_call ctx loops s.Ast.sid callee actuals
  | _ -> W_replicated

(* --- Loop partition pre-pass ------------------------------------------- *)

let triplet_of_loop (l : Sections.loop_ctx) : Triplet.t option =
  match (l.Sections.llo, l.Sections.lhi) with
  | Some lo, Some hi -> (
    match (Affine.const_value lo, Affine.const_value hi) with
    | Some a, Some b when l.Sections.lstep >= 1 ->
      Some (Triplet.make ~lo:a ~hi:b ~step:l.Sections.lstep)
    | _ -> None)
  | _ -> None

(* One processor's set after another, as [fdc partition] prints them. *)
let pp_sets ppf (sets : Iset.t array) =
  Array.iteri (fun p s -> Fmt.pf ppf "p%d:%a " p Iset.pp s) sets

let owned_of_layout ctx (layout : Layout.t) : Iset.t array =
  Layout.owned layout ~nprocs:ctx.st.opts.Options.nprocs

let loop_ctx_of ctx (s : Ast.stmt) (d : Ast.do_stmt) : Sections.loop_ctx =
  { Sections.lvar = d.Ast.var;
    llo = Affine.of_expr ctx.symtab d.Ast.lo;
    lhi = Affine.of_expr ctx.symtab d.Ast.hi;
    lstep =
      (match d.Ast.step with
      | Some e -> (
        match Option.bind (Affine.of_expr ctx.symtab e) Affine.const_value with
        | Some k -> k
        | None -> 1)
      | None -> 1);
    lsid = s.Ast.sid }

(* Candidate By_loop classifications attributed to loop [lsid] in subtree. *)
let rec collect_candidates ctx loops lsid (stmts : Ast.stmt list) : wclass list =
  List.concat_map
    (fun (s : Ast.stmt) ->
      match s.Ast.kind with
      | Ast.Do d -> collect_candidates ctx (loops @ [ loop_ctx_of ctx s d ]) lsid d.body
      | Ast.If i ->
        collect_candidates ctx loops lsid i.then_
        @ collect_candidates ctx loops lsid i.else_
      | _ -> (
        match classify_stmt ctx loops s with
        | W_by_loop b when b.wl_lsid = lsid -> [ W_by_loop b ]
        | _ -> []))
    stmts

(* A loop may only be partitioned when everything effectful in its body
   is partitioned *by it*: a distributed write partitioned by another
   loop, a single-owner write, a replicated-array write, a replicated
   call, a print, a return, or a remap (collective!) all force full
   iteration on every processor.  Scalar assignments are allowed: they
   are either per-iteration temporaries or get their distributed reads
   broadcast before the loop nest. *)
let rec subtree_safe_for_partition ctx loops lsid (stmts : Ast.stmt list) : bool =
  List.for_all
    (fun (s : Ast.stmt) ->
      match s.Ast.kind with
      | Ast.Do d ->
        subtree_safe_for_partition ctx (loops @ [ loop_ctx_of ctx s d ]) lsid d.body
      | Ast.If i ->
        subtree_safe_for_partition ctx loops lsid i.then_
        && subtree_safe_for_partition ctx loops lsid i.else_
      | Ast.Assign (lhs, _) -> (
        match lhs with
        | Ast.Var _ -> true  (* scalar temporary *)
        | Ast.Ref (name, _) -> (
          match classify_store ctx loops s.Ast.sid lhs with
          | W_by_loop b -> b.wl_lsid = lsid
          | W_owner _ | W_fallback -> false
          | W_replicated ->
            (* a replicated array written under a partition would leave
               stale copies on the other processors *)
            not (Symtab.is_array ctx.symtab name))
        | _ -> false)
      | Ast.Call _ when Dynamic_decomp.as_remap s <> None -> false
      | Ast.Call (callee, actuals) -> (
        match classify_call ctx loops s.Ast.sid callee actuals with
        | W_by_loop b -> b.wl_lsid = lsid
        | _ -> false)
      | Ast.Align _ | Ast.Distribute _ -> true
      | Ast.Return | Ast.Print _ -> false)
    stmts

let decide_partition ctx (loops_outer : Sections.loop_ctx list)
    (l : Sections.loop_ctx) (body : Ast.stmt list) : partition =
  let cands = collect_candidates ctx (loops_outer @ [ l ]) l.Sections.lsid body in
  if
    cands <> []
    && not
         (subtree_safe_for_partition ctx (loops_outer @ [ l ]) l.Sections.lsid body)
  then Unpart
  else
  match cands with
  | [] -> Unpart
  | W_by_loop first :: rest ->
    let same =
      List.for_all
        (function
          | W_by_loop b ->
            b.wl_shift = first.wl_shift && Layout.equal b.wl_layout first.wl_layout
            && b.wl_dim = first.wl_dim
          | _ -> false)
        rest
    in
    if not same then Unpart
    else begin
      let owned = owned_of_layout ctx first.wl_layout in
      match triplet_of_loop l with
      | Some range ->
        let sets =
          Array.map
            (fun o -> Iset.inter (Iset.shift (-first.wl_shift) o) (Iset.of_triplet range))
            owned
        in
        Part_concrete
          { sets;
            p_guard_info =
              { g_array = first.wl_array; g_dim = first.wl_dim; g_layout = first.wl_layout } }
      | None ->
        (* run-time loop bounds: symbolic partitioning for block/cyclic,
           unit loop step only *)
        if l.Sections.lstep <> 1 then Unpart
        else (
          match first.wl_layout.Layout.dist with
          | Layout.Block _ | Layout.Cyclic ->
            Part_symbolic
              { layout = first.wl_layout; dim = first.wl_dim; shift = first.wl_shift }
          | Layout.Block_cyclic _ | Layout.Replicated -> Unpart)
    end
  | _ -> Unpart

(* --- Communication pre-pass -------------------------------------------- *)

(* Widen an other-dimension subscript for placement outside the loops in
   [widen_over]; returns the runtime form and (when possible) the
   exportable form. *)
let widen_other_dim ctx (widen_over : Sections.loop_ctx list) (sub : Ast.expr)
    ((dlo, dhi) : int * int) : Comm.other_dim * Exports.odim option =
  match Affine.of_expr ctx.symtab sub with
  | None -> (Comm.Od_full (dlo, dhi), Some (Exports.Oc_full (dlo, dhi)))
  | Some a -> (
    let loop_vars =
      List.filter (fun l -> Affine.coeff_of l.Sections.lvar a <> 0) widen_over
    in
    match loop_vars with
    | [] ->
      let od = Comm.Od_point sub in
      let oc = Option.map (fun fa -> Exports.Oc_formal fa) (formal_affine ctx sub) in
      (od, oc)
    | [ l ] when Affine.coeff_of l.Sections.lvar a = 1 -> (
      (* widen v + c over the loop range *)
      let c = Affine.drop_var l.Sections.lvar a in
      if not (Affine.is_const c) then (Comm.Od_full (dlo, dhi), Some (Exports.Oc_full (dlo, dhi)))
      else
        let k = Affine.constant c in
        match triplet_of_loop l with
        | Some t when Triplet.step t = 1 ->
          ( Comm.Od_range (int_e (Triplet.lo t + k), int_e (Triplet.hi t + k)),
            Some
              (Exports.Oc_range
                 (Affine.const (Triplet.lo t + k), Affine.const (Triplet.hi t + k))) )
        | _ -> (Comm.Od_full (dlo, dhi), Some (Exports.Oc_full (dlo, dhi))))
    | _ -> (Comm.Od_full (dlo, dhi), Some (Exports.Oc_full (dlo, dhi))))

(* The partition decision for a loop sid (after the partition pre-pass). *)
let partition_of ctx lsid =
  match List.assoc_opt lsid ctx.partitions with Some p -> p | None -> Unpart

let mark_fallback ctx sid =
  if not (List.mem sid ctx.fallbacks) then ctx.fallbacks <- sid :: ctx.fallbacks

let add_placement ctx sid rq = ctx.placements <- ctx.placements @ [ (sid, rq) ]

(* Process one distributed read reference for communication.
   [stmt_class] is the classification of the statement containing it. *)
let process_read ctx (r : Sections.ref_info) (stmt_class : wclass)
    ~(outermost_sid : int option) =
  match dist_info ctx r.Sections.sid r.Sections.array with
  | None -> ()
  | Some (dim, layout) -> (
    let sub = List.nth r.Sections.subs dim in
    match sub with
    | None -> mark_fallback ctx r.Sections.sid
    | Some a -> (
      let bounds = bounds_of ctx r.Sections.array in
      let other_bounds = List.filteri (fun i _ -> i <> dim) bounds in
      let loop_vars =
        List.filter (fun l -> Affine.coeff_of l.Sections.lvar a <> 0) r.Sections.loops
      in
      match loop_vars with
      | [ l ]
        when Affine.coeff_of l.Sections.lvar a = 1
             && Affine.is_const (Affine.drop_var l.Sections.lvar a) -> (
        (* shift pattern relative to loop l *)
        let c = Affine.constant (Affine.drop_var l.Sections.lvar a) in
        match partition_of ctx l.Sections.lsid with
        | Part_concrete { sets; p_guard_info } -> (
          if
            (not (Layout.equal p_guard_info.g_layout layout))
            || p_guard_info.g_dim <> dim
          then mark_fallback ctx r.Sections.sid
          else begin
            let need = Array.map (Iset.shift c) sets in
            let owned = owned_of_layout ctx layout in
            let nonlocal =
              Array.exists
                (fun p -> not (Iset.subset need.(p) owned.(p)))
                (Array.init (Array.length need) Fun.id)
            in
            if nonlocal then begin
              (* any loop-carried true dependence forces per-iteration
                 communication: fall back to run-time resolution *)
              match Dependence.deepest_true_dep_level ctx.refs r with
              | Some _ -> mark_fallback ctx r.Sections.sid
              | None -> (
                (* widen other dims over all enclosing loops; place before
                   the outermost loop, or export *)
                let other_subs =
                  List.filteri (fun i _ -> i <> dim) r.Sections.subs
                in
                let widened =
                  List.map2
                    (fun s b ->
                      match s with
                      | None -> let blo, bhi = b in (Comm.Od_full (blo, bhi), Some (Exports.Oc_full (blo, bhi)))
                      | Some sa ->
                        widen_other_dim ctx r.Sections.loops (Affine.to_expr sa) b)
                    other_subs
                    (List.map
                       (fun (lo, hi) -> (lo, hi))
                       other_bounds)
                in
                let ods = List.map fst widened in
                let ocs = List.map snd widened in
                let exportable =
                  ctx.st.opts.Options.strategy = Options.Interproc
                  && ctx.cu.Sema.unit_.Ast.ukind = Ast.Subroutine
                  && (List.mem r.Sections.array ctx.formals
                     || Symtab.is_common ctx.symtab r.Sections.array)
                  && List.for_all Option.is_some ocs
                in
                if exportable then begin
                  (* find the partitioned write's other-dim subscripts for
                     the caller's disjointness test *)
                  let write_other =
                    List.find_map
                      (fun (w : Sections.ref_info) ->
                        if
                          w.Sections.is_write
                          && String.equal w.Sections.array r.Sections.array
                        then
                          let wsubs =
                            List.filteri (fun i _ -> i <> dim) w.Sections.subs
                          in
                          let oc =
                            List.map
                              (fun s ->
                                match s with
                                | Some sa -> (
                                  match formal_affine ctx (Affine.to_expr sa) with
                                  | Some fa -> Some (Exports.Oc_formal fa)
                                  | None -> None)
                                | None -> None)
                              wsubs
                          in
                          if List.for_all Option.is_some oc then
                            Some (List.map Option.get oc)
                          else None
                        else None)
                      ctx.refs
                  in
                  ctx.pending_out <-
                    ctx.pending_out
                    @ [ Exports.P_shift
                          { ps_array = r.Sections.array; ps_dim = dim; ps_need = need;
                            ps_other = List.map Option.get ocs;
                            ps_write_other = write_other } ]
                end
                else
                  match outermost_sid with
                  | Some osid ->
                    add_placement ctx osid
                      (Rq_shift
                         { rs_array = r.Sections.array; rs_layout = layout;
                           rs_dim = dim; rs_need = need; rs_other = ods })
                  | None -> mark_fallback ctx r.Sections.sid)
            end
          end)
        | Part_symbolic _ ->
          (* symbolic partitions support owner-aligned reads only *)
          if c <> 0 then mark_fallback ctx r.Sections.sid
        | Unpart ->
          (* read scans a distributed dimension from replicated code *)
          mark_fallback ctx r.Sections.sid)
      | [] -> (
        (* loop-invariant distributed index: single owner *)
        let index_expr = Affine.to_expr a in
        (* local when the enclosing statement is guarded/partitioned on
           the same owner *)
        let local =
          match stmt_class with
          | W_owner { wo_index; wo_dim; wo_layout; _ } -> (
            (* owner equality is what matters: same layout and the same
               index value (compare affine forms so PARAMETER names and
               folded constants agree) *)
            wo_dim = dim
            && Layout.equal wo_layout layout
            &&
            match Affine.of_expr ctx.symtab wo_index with
            | Some wo_aff -> Affine.equal wo_aff a
            | None -> expr_equal wo_index index_expr)
          | W_by_loop _ -> false
          | _ -> (
            (* inside a C_owner procedure everything runs on one owner *)
            match ctx.proc_constraint with
            | Exports.C_owner { co_index; _ } -> (
              match formal_affine ctx index_expr with
              | Some fa -> Affine.equal fa co_index
              | None -> false)
            | Exports.C_none -> false)
        in
        if local then ()
        else begin
          (* broadcast request *)
          let other_subs = List.filteri (fun i _ -> i <> dim) r.Sections.subs in
          let widened =
            List.map2
              (fun s b ->
                match s with
                | None -> let blo, bhi = b in (Comm.Od_full (blo, bhi), Some (Exports.Oc_full (blo, bhi)))
                | Some sa -> widen_other_dim ctx r.Sections.loops (Affine.to_expr sa) b)
              other_subs other_bounds
          in
          let ods = List.map fst widened in
          let ocs = List.map snd widened in
          let exportable =
            ctx.st.opts.Options.strategy = Options.Interproc
            && ctx.cu.Sema.unit_.Ast.ukind = Ast.Subroutine
            && (List.mem r.Sections.array ctx.formals
               || Symtab.is_common ctx.symtab r.Sections.array)
            && List.for_all Option.is_some ocs
            && formal_affine ctx index_expr <> None
          in
          if exportable then
            ctx.pending_out <-
              ctx.pending_out
              @ [ Exports.P_invariant
                    { pi_array = r.Sections.array; pi_dim = dim;
                      pi_index = Option.get (formal_affine ctx index_expr);
                      pi_other = List.map Option.get ocs } ]
          else begin
            (* place before the outermost enclosing loop in which the
               index is invariant (it is invariant in all local loops
               here since it has no loop vars) *)
            let target =
              match outermost_sid with Some osid -> osid | None -> r.Sections.sid
            in
            add_placement ctx target
              (Rq_bcast
                 { rb_array = r.Sections.array; rb_layout = layout; rb_dim = dim;
                   rb_index = index_expr; rb_other = ods })
          end
        end)
      | _ -> mark_fallback ctx r.Sections.sid))

(* --- Procedure-level constraint detection ------------------------------ *)

(* Collect every statement's classification (flat). *)
let rec classify_all ctx loops (stmts : Ast.stmt list) : (int * wclass) list =
  List.concat_map
    (fun (s : Ast.stmt) ->
      match s.Ast.kind with
      | Ast.Do d ->
        let ctxl =
          { Sections.lvar = d.var;
            llo = Affine.of_expr ctx.symtab d.lo;
            lhi = Affine.of_expr ctx.symtab d.hi;
            lstep =
              (match d.step with
              | Some e -> (
                match Option.bind (Affine.of_expr ctx.symtab e) Affine.const_value with
                | Some k -> k
                | None -> 1)
              | None -> 1);
            lsid = s.Ast.sid }
        in
        classify_all ctx (loops @ [ ctxl ]) d.body
      | Ast.If i ->
        classify_all ctx loops i.then_ @ classify_all ctx loops i.else_
      | _ -> [ (s.Ast.sid, classify_stmt ctx loops s) ])
    stmts

(* Detect the whole-procedure owner constraint: every distributed write
   (or, with none, every distributed read) touches a single owner indexed
   by the same formal-affine expression. *)
let detect_constraint ctx (body : Ast.stmt list) : Exports.constraint_ =
  if ctx.pname = (ctx.st.acg).Acg.main then Exports.C_none
  else begin
    let classes = classify_all ctx [] body in
    let has_partition_or_fallback =
      List.exists
        (fun (_, c) -> match c with W_by_loop _ | W_fallback -> true | _ -> false)
        classes
    in
    if has_partition_or_fallback then Exports.C_none
    else begin
      let owners =
        List.filter_map
          (fun (_, c) ->
            match c with
            | W_owner { wo_array; wo_dim; wo_index; _ } -> (
              match formal_affine ctx wo_index with
              | Some fa -> Some (Some (wo_array, wo_dim, fa))
              | None -> Some None)
            | _ -> None)
          classes
      in
      let reads =
        List.filter_map
          (fun (r : Sections.ref_info) ->
            if r.Sections.is_write then None
            else
              match dist_info ctx r.Sections.sid r.Sections.array with
              | None -> None
              | Some (dim, _) -> (
                match List.nth r.Sections.subs dim with
                | None -> Some None
                | Some a ->
                  if
                    List.exists
                      (fun l -> Affine.coeff_of l.Sections.lvar a <> 0)
                      r.Sections.loops
                  then Some None
                  else
                    (match formal_affine ctx (Affine.to_expr a) with
                    | Some fa -> Some (Some (r.Sections.array, dim, fa))
                    | None -> Some None)))
          ctx.refs
      in
      let merge cands =
        match cands with
        | [] -> None
        | Some (a0, d0, i0) :: rest
          when List.for_all
                 (function
                   | Some (a, d, i) ->
                     String.equal a a0 && d = d0 && Affine.equal i i0
                   | None -> false)
                 rest ->
          Some (a0, d0, i0)
        | _ -> None
      in
      match (owners, merge owners) with
      | [], _ -> (
        (* no distributed writes: constrain by the reads, requiring them
           to be uniform (a procedure that must run on the data's owner) *)
        match (reads, merge reads) with
        | [], _ -> Exports.C_none
        | _, Some (a, d, i) ->
          Exports.C_owner { co_array = a; co_dim = d; co_index = i }
        | _, None -> Exports.C_none)
      | _, Some (a, d, i) -> (
        (* writes uniform; reads must be uniform-or-broadcastable *)
        let reads_ok =
          List.for_all
            (fun (r : Sections.ref_info) ->
              if r.Sections.is_write then true
              else
                match dist_info ctx r.Sections.sid r.Sections.array with
                | None -> true
                | Some (dim, _) -> (
                  match List.nth r.Sections.subs dim with
                  | None -> false
                  | Some sa -> (
                    if
                      List.exists
                        (fun l -> Affine.coeff_of l.Sections.lvar sa <> 0)
                        r.Sections.loops
                    then false
                    else
                      match formal_affine ctx (Affine.to_expr sa) with
                      | Some _ -> true
                      | None -> false)))
            ctx.refs
        in
        if reads_ok then Exports.C_owner { co_array = a; co_dim = d; co_index = i }
        else Exports.C_none)
      | _, None -> Exports.C_none
    end
  end

(* --- Dynamic decomposition: analysis and materialization --------------- *)

(* The unique inherited decomposition of formal array [x]. *)
let inherited_decomp ctx (x : string) : Decomp.t =
  let fact = Reaching_decomps.reaching_of ctx.st.rd ctx.pname in
  let rank = Symtab.rank ctx.symtab x in
  match SM.find_opt x fact with
  | Some r -> (
    match (Decomp.Set.elements r.Decomp.decomps, r.Decomp.top) with
    | [ d ], false -> d
    | [], _ -> Decomp.replicated rank
    | _ -> Diag.error "formal %s of %s has multiple inherited decompositions" x ctx.pname)
  | None -> Decomp.replicated rank

(* Distribute statements whose target resolves to a formal array, where
   the distribute precedes any use: eligible for Before/After export. *)
type dyn_info = {
  dyn_override : Decomp.t SM.t;
  dyn_before : (string * Decomp.t) list;
  dyn_after : (string * Decomp.t) list;
  dyn_local_sids : int list;  (* distribute sids to materialize locally *)
}

let flatten_stmts (body : Ast.stmt list) : Ast.stmt list =
  let out = ref [] in
  Ast.iter_stmts (fun s -> out := s :: !out) body;
  List.rev !out

let distribute_targets ctx (s : Ast.stmt) : (string * Decomp.t) list =
  (* arrays whose decomposition changes at this DISTRIBUTE (directly or
     through alignment) *)
  match s.Ast.kind with
  | Ast.Distribute { decomp; dists } ->
    let d = Decomp.of_kinds dists in
    if Symtab.is_decomposition ctx.symtab decomp then begin
      let lr = Reaching_decomps.local_of ctx.st.rd ctx.pname in
      SM.fold
        (fun array (target, subs) acc ->
          if String.equal target decomp then
            (array,
             Decomp.through_align ~array_rank:(Symtab.rank ctx.symtab array) subs d)
            :: acc
          else acc)
        (Reaching_decomps.aligns_of lr) []
    end
    else [ (decomp, d) ]
  | _ -> []

let analyze_dyn ctx (body : Ast.stmt list) : dyn_info =
  let flat = flatten_stmts body in
  let uses_before target_sid x =
    let rec scan = function
      | [] -> false
      | (s : Ast.stmt) :: _ when s.Ast.sid = target_sid -> false
      | s :: rest ->
        let used = ref false in
        Ast.iter_exprs_stmt
          (fun e ->
            Ast.iter_exprs_expr
              (fun e' ->
                match e' with
                | Ast.Ref (a, _) | Ast.Var a -> if String.equal a x then used := true
                | _ -> ())
              e)
          s;
        if !used then true else scan rest
    in
    scan flat
  in
  let interproc = ctx.st.opts.Options.strategy = Options.Interproc in
  let override = ref SM.empty in
  let before = ref [] and after = ref [] and local = ref [] in
  List.iter
    (fun (s : Ast.stmt) ->
      match s.Ast.kind with
      | Ast.Distribute _ ->
        let targets = distribute_targets ctx s in
        let all_exportable =
          interproc
          && ctx.cu.Sema.unit_.Ast.ukind = Ast.Subroutine
          && targets <> []
          && List.for_all
               (fun (x, _) ->
                 (List.mem x ctx.formals || Symtab.is_common ctx.symtab x)
                 && (not (SM.mem x !override))
                 && not (uses_before s.Ast.sid x))
               targets
        in
        if all_exportable then
          List.iter
            (fun (x, d) ->
              override := SM.add x d !override;
              before := (x, d) :: !before;
              let inh = inherited_decomp ctx x in
              if not (Decomp.equal inh d) then after := (x, inh) :: !after)
            targets
        else local := s.Ast.sid :: !local
      | _ -> ())
    flat;
  { dyn_override = !override;
    dyn_before = List.rev !before;
    dyn_after = List.rev !after;
    dyn_local_sids = List.rev !local }

(* Instrument the body with remap$ pseudo-statements. *)
let materialize_remaps ctx (dyn : dyn_info) (body : Ast.stmt list) : Ast.stmt list =
  let interproc = ctx.st.opts.Options.strategy = Options.Interproc in
  let rec walk stmts =
    List.concat_map
      (fun (s : Ast.stmt) ->
        match s.Ast.kind with
        | Ast.Do d -> [ { s with kind = Ast.Do { d with body = walk d.body } } ]
        | Ast.If i ->
          [ { s with kind = Ast.If { i with then_ = walk i.then_; else_ = walk i.else_ } } ]
        | Ast.Distribute _ ->
          if List.mem s.Ast.sid dyn.dyn_local_sids then
            s
            :: List.map
                 (fun (x, d) ->
                   Dynamic_decomp.remap_stmt ctx.st.pseudo_sids
                     { Dynamic_decomp.rm_array = x; rm_decomp = d; rm_move = true })
                 (distribute_targets ctx s)
          else [ s ]
        | Ast.Call (callee, actuals) when interproc && Dynamic_decomp.as_remap s = None
          -> (
          match Acg.proc ctx.st.acg callee with
          | exception _ -> [ s ]
          | callee_proc ->
            let ex = export_of ctx.st callee in
            let callee_formals = callee_proc.Acg.cu.Sema.unit_.Ast.formals in
            let actual_of f =
              match List.assoc_opt f (List.combine callee_formals actuals) with
              | Some (Ast.Var v) when Symtab.is_array ctx.symtab v -> Some v
              | Some _ -> None
              | None ->
                (* COMMON arrays translate by identity *)
                if
                  Symtab.is_common callee_proc.Acg.cu.Sema.symtab f
                  && Symtab.is_array ctx.symtab f
                then Some f
                else None
            in
            let translate lst =
              List.filter_map
                (fun (f, d) ->
                  Option.map
                    (fun v ->
                      Dynamic_decomp.remap_stmt ctx.st.pseudo_sids
                        { Dynamic_decomp.rm_array = v; rm_decomp = d; rm_move = true })
                    (actual_of f))
                lst
            in
            translate ex.Exports.ex_before @ [ s ] @ translate ex.Exports.ex_after)
        | _ -> [ s ])
      stmts
  in
  let instrumented = walk body in
  (* non-interprocedural strategies restore inherited decompositions of
     formals at procedure exit *)
  if (not interproc) && dyn.dyn_local_sids <> [] then begin
    let inheriting x =
      List.mem x ctx.formals || Symtab.is_common ctx.symtab x
    in
    let formals_distributed =
      List.concat_map
        (fun (s : Ast.stmt) ->
          if List.mem s.Ast.sid dyn.dyn_local_sids then
            List.filter (fun (x, _) -> inheriting x) (distribute_targets ctx s)
          else [])
        (flatten_stmts body)
      |> List.map fst
      |> Listx.dedup ~equal:String.equal
    in
    let restores () =
      List.map
        (fun x ->
          Dynamic_decomp.remap_stmt ctx.st.pseudo_sids
            { Dynamic_decomp.rm_array = x; rm_decomp = inherited_decomp ctx x;
              rm_move = true })
        formals_distributed
    in
    (* restore the inherited decompositions at every exit: before each
       RETURN and at the end of the body *)
    let rec with_restores stmts =
      List.concat_map
        (fun (s : Ast.stmt) ->
          match s.Ast.kind with
          | Ast.Return -> restores () @ [ s ]
          | Ast.Do d ->
            [ { s with kind = Ast.Do { d with body = with_restores d.body } } ]
          | Ast.If i ->
            [ { s with
                kind =
                  Ast.If
                    { i with
                      then_ = with_restores i.then_;
                      else_ = with_restores i.else_ } } ]
          | _ -> [ s ])
        stmts
    in
    with_restores instrumented @ restores ()
  end
  else instrumented

(* --- Pass drivers ------------------------------------------------------- *)

let partition_pass ctx (body : Ast.stmt list) =
  ctx.partitions <- [];
  let rec walk loops stmts =
    List.iter
      (fun (s : Ast.stmt) ->
        match s.Ast.kind with
        | Ast.Do d ->
          let l = loop_ctx_of ctx s d in
          let decision = decide_partition ctx loops l d.body in
          (* validate concrete partitions are emittable *)
          let decision =
            match decision with
            | Part_concrete { sets; _ } when Fit.fit_procset_opt sets = None -> Unpart
            | d -> d
          in
          (let describe =
             match decision with
             | Unpart -> "replicated (full bounds on every processor)"
             | Part_concrete { sets; p_guard_info } ->
               Fmt.str "partitioned on %s dim %d: %a" p_guard_info.g_array
                 (p_guard_info.g_dim + 1) pp_sets sets
             | Part_symbolic { layout; dim; shift } ->
               Fmt.str "partitioned symbolically on dim %d (%a, shift %d)" (dim + 1)
                 Layout.pp layout shift
           in
           ctx.st.partition_log <-
             ctx.st.partition_log
             @ [ (ctx.pname, Fmt.str "do %s (s%d): %s" d.var s.Ast.sid describe) ]);
          ctx.partitions <- (s.Ast.sid, decision) :: ctx.partitions;
          walk (loops @ [ l ]) d.body
        | Ast.If i ->
          walk loops i.then_;
          walk loops i.else_
        | _ -> ())
      stmts
  in
  walk [] body

(* Does hoisting a read of [array] (dist dim [dim], index [idx_aff] over
   proc-local names) out of partitioned loop [l] interfere with writes
   performed inside the loop? *)
let hoist_interferes (l : Sections.loop_ctx) (lp : partition) ~array ~dim
    ~(idx_aff : Affine.t option) (loop_body_writes : (string * int option) list) : bool =
  (* loop_body_writes: (array, Some shift) for partition candidates,
     (array, None) for arbitrary writes *)
  List.exists
    (fun (warr, wshift) ->
      if not (String.equal warr array) then false
      else
        match (lp, wshift, idx_aff, l.Sections.llo, l.Sections.lhi) with
        | Part_concrete _, Some c, Some idx, Some lo, _
        | Part_symbolic _, Some c, Some idx, Some lo, _ -> (
          (* candidate writes touch dist indices [lo+c .. hi+c] of [dim];
             safe when idx provably below lo+c (or above hi+c) *)
          ignore dim;
          let below = Affine.sub (Affine.add lo (Affine.const c)) idx in
          match Affine.const_value below with
          | Some k when k >= 1 -> false
          | _ -> (
            match l.Sections.lhi with
            | Some hi -> (
              let above = Affine.sub idx (Affine.add hi (Affine.const c)) in
              match Affine.const_value above with
              | Some k when k >= 1 -> false
              | _ -> true)
            | None -> true))
        | _ -> true)
    loop_body_writes

(* Writes inside a loop subtree: direct stores plus arrays modified by
   called procedures (candidates annotated with their shift). *)
let subtree_writes ctx ?(loops0 = []) (stmts : Ast.stmt list) : (string * int option) list =
  let out = ref [] in
  let rec walk loops ss =
    List.iter
      (fun (s : Ast.stmt) ->
        match s.Ast.kind with
        | Ast.Do d -> walk (loops @ [ loop_ctx_of ctx s d ]) d.body
        | Ast.If i ->
          walk loops i.then_;
          walk loops i.else_
        | Ast.Assign (lhs, _) -> (
          match lhs with
          | Ast.Ref (name, _) -> (
            match classify_store ctx loops s.Ast.sid lhs with
            | W_by_loop b -> out := (name, Some b.wl_shift) :: !out
            | _ -> out := (name, None) :: !out)
          | _ -> ())
        | Ast.Call (callee, actuals) when Dynamic_decomp.as_remap s = None -> (
          match classify_call ctx loops s.Ast.sid callee actuals with
          | W_by_loop b ->
            (* the call writes its constraint array at the loop index *)
            out := (b.wl_array, Some b.wl_shift) :: !out;
            (* plus anything else it modifies *)
            let gmod = Side_effects.gmod ctx.st.effects callee in
            let callee_formals =
              (Acg.proc ctx.st.acg callee).Acg.cu.Sema.unit_.Ast.formals
            in
            List.iter2
              (fun f a ->
                match a with
                | Ast.Var v
                  when Side_effects.S.mem f gmod
                       && Symtab.is_array ctx.symtab v
                       && not (String.equal v b.wl_array) ->
                  out := (v, None) :: !out
                | _ -> ())
              callee_formals actuals
          | _ ->
            let gmod = Side_effects.gmod ctx.st.effects callee in
            let callee_formals =
              try (Acg.proc ctx.st.acg callee).Acg.cu.Sema.unit_.Ast.formals
              with _ -> []
            in
            if List.length callee_formals = List.length actuals then
              List.iter2
                (fun f a ->
                  match a with
                  | Ast.Var v
                    when Side_effects.S.mem f gmod && Symtab.is_array ctx.symtab v ->
                    out := (v, None) :: !out
                  | _ -> ())
                callee_formals actuals;
            (* modified COMMON arrays pass through by identity *)
            Side_effects.S.iter
              (fun n ->
                if Symtab.is_common ctx.symtab n && Symtab.is_array ctx.symtab n then
                  out := (n, None) :: !out)
              gmod)
        | _ -> ())
      ss
  in
  walk loops0 stmts;
  !out

(* Placement for a broadcast-style request: hoist outward from the
   reference while safe; returns the sid to place before. *)
let bcast_placement ctx (enclosing : (Ast.stmt * Ast.do_stmt) list) (* innermost last *)
    ~array ~dim ~(idx_aff : Affine.t option) ~(stmt_sid : int) : int =
  let rec climb placed = function
    | [] -> placed
    | (s, (d : Ast.do_stmt)) :: outer ->
      (* [s] is the innermost not-yet-crossed loop; crossing it is safe if
         its body's writes don't interfere *)
      let l = loop_ctx_of ctx s d in
      let lp = partition_of ctx s.Ast.sid in
      let writes = subtree_writes ctx ~loops0:[ l ] d.Ast.body in
      if hoist_interferes l lp ~array ~dim ~idx_aff writes then placed
      else climb s.Ast.sid outer
  in
  climb stmt_sid (List.rev enclosing)

(* --- Communication pass -------------------------------------------------- *)

(* Instantiate or re-delay a callee's pending communications at a call. *)
let process_call_pendings ctx (loops : (Ast.stmt * Ast.do_stmt) list) sid callee actuals =
  let ex = export_of ctx.st callee in
  if ex.Exports.ex_comms = [] then ()
  else begin
    let callee_cu = (Acg.proc ctx.st.acg callee).Acg.cu in
    let callee_formals = callee_cu.Sema.unit_.Ast.formals in
    let bindings =
      List.fold_left2 (fun acc f a -> SM.add f a acc) SM.empty callee_formals actuals
    in
    let bindings =
      List.fold_left
        (fun acc (name, _) ->
          if SM.mem name acc then acc else SM.add name (Ast.Var name) acc)
        bindings
        (Symtab.commons callee_cu.Sema.symtab)
    in
    let actual_array f =
      match SM.find_opt f bindings with
      | Some (Ast.Var v) when Symtab.is_array ctx.symtab v -> Some v
      | _ -> None
    in
    let subst_odim (o : Exports.odim) : Comm.other_dim option =
      match o with
      | Exports.Oc_const c -> Some (Comm.Od_point (int_e c))
      | Exports.Oc_full (lo, hi) -> Some (Comm.Od_full (lo, hi))
      | Exports.Oc_formal a ->
        Option.map (fun e -> Comm.Od_point e) (subst_affine bindings a)
      | Exports.Oc_range (a, b) -> (
        match (subst_affine bindings a, subst_affine bindings b) with
        | Some ea, Some eb -> Some (Comm.Od_range (ea, eb))
        | _ -> None)
    in
    List.iter
      (fun (p : Exports.pending) ->
        match p with
        | Exports.P_invariant { pi_array; pi_dim; pi_index; pi_other } -> (
          match actual_array pi_array with
          | None -> mark_fallback ctx sid
          | Some arr -> (
            match dist_info ctx sid arr with
            | None -> ()  (* replicated at the call: data available everywhere *)
            | Some (dim, layout) -> (
              if dim <> pi_dim then mark_fallback ctx sid
              else
                match subst_affine bindings pi_index with
                | None -> mark_fallback ctx sid
                | Some index_expr -> (
                  let others = List.map subst_odim pi_other in
                  if List.exists Option.is_none others then mark_fallback ctx sid
                  else begin
                    let idx_aff = Affine.of_expr ctx.symtab index_expr in
                    let target =
                      bcast_placement ctx loops ~array:arr ~dim ~idx_aff ~stmt_sid:sid
                    in
                    add_placement ctx target
                      (Rq_bcast
                         { rb_array = arr; rb_layout = layout; rb_dim = dim;
                           rb_index = index_expr;
                           rb_other = List.map Option.get others })
                  end))))
        | Exports.P_shift { ps_array; ps_dim; ps_need; ps_other; ps_write_other } -> (
          match actual_array ps_array with
          | None -> mark_fallback ctx sid
          | Some arr -> (
            match dist_info ctx sid arr with
            | None -> ()
            | Some (dim, layout) ->
              if dim <> ps_dim then mark_fallback ctx sid
              else begin
                (* try to hoist out of the innermost enclosing partitioned
                   loop when the callee's read and write sections are
                   indexed identically by that loop in some dimension *)
                let callee_sig =
                  callee ^ "|"
                  ^ String.concat ","
                      (List.map Ast_printer.expr_to_string actuals)
                in
                (* writes to [arr] in a loop's body are harmless for
                   hoisting only when they all come from call sites with
                   this same callee and actuals (their sections are then
                   indexed identically by the loop variable) *)
                let rec only_same_call_writes stmts =
                  List.for_all
                    (fun (t : Ast.stmt) ->
                      match t.Ast.kind with
                      | Ast.Do td -> only_same_call_writes td.Ast.body
                      | Ast.If ti ->
                        only_same_call_writes ti.Ast.then_
                        && only_same_call_writes ti.Ast.else_
                      | Ast.Assign (Ast.Ref (n, _), _) -> not (String.equal n arr)
                      | Ast.Assign (_, _) -> true
                      | Ast.Call _ when Dynamic_decomp.as_remap t <> None ->
                        not (Dynamic_decomp.is_remap_of arr t)
                      | Ast.Call (tc, targs) ->
                        let sig_t =
                          tc ^ "|"
                          ^ String.concat ","
                              (List.map Ast_printer.expr_to_string targs)
                        in
                        String.equal sig_t callee_sig
                        ||
                        (* the call must not modify [arr] *)
                        (let gmod = Side_effects.gmod ctx.st.effects tc in
                         let tformals =
                           try (Acg.proc ctx.st.acg tc).Acg.cu.Sema.unit_.Ast.formals
                           with _ -> []
                         in
                         List.length tformals = List.length targs
                         && List.for_all2
                              (fun f a ->
                                match a with
                                | Ast.Var v when String.equal v arr ->
                                  not (Side_effects.S.mem f gmod)
                                | _ -> true)
                              tformals targs)
                      | _ -> true)
                    stmts
                in
                let hoisted =
                  match List.rev loops with
                  | (ls, ld) :: _ -> (
                    let lvar = ld.Ast.var in
                    match (only_same_call_writes ld.Ast.body, ps_write_other) with
                    | true, Some wother
                      when List.exists2
                             (fun (ro : Exports.odim) (wo : Exports.odim) ->
                               match (ro, wo) with
                               | Exports.Oc_formal ra, Exports.Oc_formal wa -> (
                                 Affine.equal ra wa
                                 &&
                                 match subst_affine bindings ra with
                                 | Some (Ast.Var v) -> String.equal v lvar
                                 | _ -> false)
                               | _ -> false)
                             ps_other wother ->
                      (* widen the loop-indexed dimensions over the loop
                         range and place before the loop *)
                      let widened =
                        List.map
                          (fun (ro : Exports.odim) ->
                            match ro with
                            | Exports.Oc_formal ra -> (
                              match subst_affine bindings ra with
                              | Some (Ast.Var v) when String.equal v lvar ->
                                Some (Comm.Od_range (ld.Ast.lo, ld.Ast.hi))
                              | Some e -> Some (Comm.Od_point e)
                              | None -> None)
                            | o -> subst_odim o)
                          ps_other
                      in
                      if List.for_all Option.is_some widened then
                        Some (ls.Ast.sid, List.map Option.get widened)
                      else None
                    | _ -> None)
                  | [] -> None
                in
                match hoisted with
                | Some (target, others) ->
                  add_placement ctx target
                    (Rq_shift
                       { rs_array = arr; rs_layout = layout; rs_dim = dim;
                         rs_need = ps_need; rs_other = others })
                | None -> (
                  let others = List.map subst_odim ps_other in
                  if List.exists Option.is_none others then mark_fallback ctx sid
                  else
                    add_placement ctx sid
                      (Rq_shift
                         { rs_array = arr; rs_layout = layout; rs_dim = dim;
                           rs_need = ps_need; rs_other = List.map Option.get others }))
              end)))
      ex.Exports.ex_comms
  end

let comm_pass ctx (body : Ast.stmt list) =
  ctx.placements <- [];
  ctx.pending_out <- [];
  let rec walk (loops : (Ast.stmt * Ast.do_stmt) list) stmts =
    List.iter
      (fun (s : Ast.stmt) ->
        match s.Ast.kind with
        | Ast.Do d -> walk (loops @ [ (s, d) ]) d.body
        | Ast.If i ->
          process_stmt loops s;
          walk loops i.then_;
          walk loops i.else_
        | Ast.Call (callee, actuals) when Dynamic_decomp.as_remap s = None ->
          process_stmt loops s;
          if not (List.mem s.Ast.sid ctx.fallbacks) then
            process_call_pendings ctx loops s.Ast.sid callee actuals
        | _ -> process_stmt loops s)
      stmts
  and process_stmt loops (s : Ast.stmt) =
    if not (List.mem s.Ast.sid ctx.fallbacks) then begin
      let loop_ctxs = List.map (fun (ls, ld) -> loop_ctx_of ctx ls ld) loops in
      let stmt_class = classify_stmt ctx loop_ctxs s in
      let outermost_sid =
        match loops with (ls, _) :: _ -> Some ls.Ast.sid | [] -> None
      in
      List.iter
        (fun (r : Sections.ref_info) ->
          if (not r.Sections.is_write) && r.Sections.sid = s.Ast.sid then
            process_read ctx r stmt_class ~outermost_sid)
        ctx.refs
    end
  in
  walk [] body

(* Loops (sids) whose subtree contains a fallback statement must run their
   full bounds on every processor. *)
let demote_loops_with_fallbacks ctx (body : Ast.stmt list) : bool =
  let changed = ref false in
  let rec walk (enclosing : int list) stmts =
    List.iter
      (fun (s : Ast.stmt) ->
        (if List.mem s.Ast.sid ctx.fallbacks then
           List.iter
             (fun lsid ->
               match partition_of ctx lsid with
               | Unpart -> ()
               | _ ->
                 ctx.partitions <-
                   (lsid, Unpart) :: List.remove_assoc lsid ctx.partitions;
                 changed := true)
             enclosing);
        match s.Ast.kind with
        | Ast.Do d -> walk (s.Ast.sid :: enclosing) d.body
        | Ast.If i ->
          walk enclosing i.then_;
          walk enclosing i.else_
        | _ -> ())
      stmts
  in
  walk [] body;
  !changed

(* --- Emission ------------------------------------------------------------ *)

let runtime_ctx ctx sid : Runtime_res.ctx =
  { Runtime_res.nprocs = ctx.st.opts.Options.nprocs;
    symtab = ctx.symtab;
    is_dist =
      (fun name ->
        Symtab.is_array ctx.symtab name
        && Reaching_decomps.maybe_distributed ctx.st.rd ctx.pname sid name);
    fresh_tag = (fun () -> fresh ctx.st);
    fresh_tmp = (fun () -> Fmt.str "o$%d" (fresh ctx.st)) }

(* Fold PARAMETER constants into emitted expressions: the node program
   has no symbol table, so named compile-time constants must disappear. *)
let fold_params (symtab : Symtab.t) (body : Node.nstmt list) : Node.nstmt list =
  let rec fold (e : Ast.expr) : Ast.expr =
    match e with
    | Ast.Var v -> (
      match Symtab.param_value symtab v with
      | Some n -> Ast.Int_const n
      | None -> e)
    | Ast.Int_const _ | Ast.Real_const _ | Ast.Logical_const _ -> e
    | Ast.Ref (a, subs) -> Ast.Ref (a, List.map fold subs)
    | Ast.Funcall (f, args) -> Ast.Funcall (f, List.map fold args)
    | Ast.Bin (op, a, b) -> Ast.Bin (op, fold a, fold b)
    | Ast.Un (op, a) -> Ast.Un (op, fold a)
  in
  List.map (Node.map_exprs fold) body

let request_key = function
  | Rq_shift { rs_array; rs_dim; rs_other; rs_need; _ } ->
    Fmt.str "s|%s|%d|%s|%s" rs_array rs_dim
      (String.concat ";"
         (List.map
            (function
              | Comm.Od_point e -> Ast_printer.expr_to_string e
              | Comm.Od_range (a, b) ->
                Ast_printer.expr_to_string a ^ ":" ^ Ast_printer.expr_to_string b
              | Comm.Od_full (a, b) -> Fmt.str "F%d:%d" a b)
            rs_other))
      (String.concat "&" (Array.to_list (Array.map Iset.to_string rs_need)))
  | Rq_bcast { rb_array; rb_dim; rb_index; rb_other; _ } ->
    Fmt.str "b|%s|%d|%s|%s" rb_array rb_dim
      (Ast_printer.expr_to_string rb_index)
      (String.concat ";"
         (List.map
            (function
              | Comm.Od_point e -> Ast_printer.expr_to_string e
              | Comm.Od_range (a, b) ->
                Ast_printer.expr_to_string a ^ ":" ^ Ast_printer.expr_to_string b
              | Comm.Od_full (a, b) -> Fmt.str "F%d:%d" a b)
            rb_other))

let emit_request ctx ~loc (rq : request) : Node.nstmt list =
  let nprocs = ctx.st.opts.Options.nprocs in
  match rq with
  | Rq_shift { rs_array; rs_layout; rs_dim; rs_need; rs_other } ->
    Comm.emit_section_comm ~loc ~nprocs ~tag:(fresh ctx.st) ~array:rs_array
      ~layout:rs_layout ~dim:rs_dim ~need:rs_need ~other_dims:rs_other ()
  | Rq_bcast { rb_array; rb_layout; rb_dim; rb_index; rb_other } ->
    if ctx.st.opts.Options.use_collectives then
      [ Comm.emit_bcast_section ~loc ~nprocs ~site:(fresh ctx.st)
          ~array:rb_array ~layout:rb_layout ~dim:rb_dim ~index:rb_index
          ~other_dims:rb_other () ]
    else begin
      (* expand to P-1 point-to-point messages from the owner *)
      let root_tmp = Fmt.str "o$%d" (fresh ctx.st) in
      let tag = fresh ctx.st in
      let sec =
        Comm.assemble_section ~rank:(Layout.rank rb_layout) ~dim:rb_dim
          (rb_index, rb_index, int_e 1) rb_other
      in
      [ Node.N_assign (Ast.Var root_tmp, Comm.owner_expr ~nprocs rb_layout rb_index);
        Node.N_do
          { var = "p$"; lo = int_e 0; hi = int_e (nprocs - 1); step = None;
            body =
              [ Node.N_if
                  { cond =
                      Ast.Bin
                        ( Ast.And,
                          Ast.Bin (Ast.Eq, myp, Ast.Var root_tmp),
                          Ast.Bin (Ast.Ne, Ast.Var "p$", Ast.Var root_tmp) );
                    then_ =
                      [ Node.N_send
                          { dest = Ast.Var "p$"; parts = [ (rb_array, sec) ];
                            tag; loc } ];
                    else_ = [];
                    loc } ] };
        Node.N_if
          { cond = Ast.Bin (Ast.Ne, myp, Ast.Var root_tmp);
            then_ = [ Node.N_recv { src = Ast.Var root_tmp; tag; loc } ];
            else_ = [];
            loc } ]
    end

let emit_placed ctx ~loc sid : Node.nstmt list =
  let rqs = List.filter (fun (s, _) -> s = sid) ctx.placements in
  let deduped =
    Listx.dedup ~equal:(fun (_, a) (_, b) -> String.equal (request_key a) (request_key b)) rqs
    |> List.map snd
  in
  if not ctx.st.opts.Options.aggregate_messages then
    List.concat_map (emit_request ctx ~loc) deduped
  else begin
    (* aggregation (paper Fig. 11): shift transfers over the same layout
       and dimension at one placement share one message per processor
       pair *)
    let shift_key = function
      | Rq_shift { rs_layout; rs_dim; _ } ->
        Some (Fmt.str "%a|%d" Layout.pp rs_layout rs_dim, rs_layout, rs_dim)
      | Rq_bcast _ -> None
    in
    let groups =
      Listx.group_by
        ~key:(fun rq ->
          match shift_key rq with Some (k, _, _) -> k | None -> "")
        ~equal_key:String.equal deduped
    in
    List.concat_map
      (fun (key, members) ->
        if String.equal key "" || List.length members < 2 then
          List.concat_map (emit_request ctx ~loc) members
        else begin
          let layout, dim =
            match members with
            | Rq_shift { rs_layout; rs_dim; _ } :: _ -> (rs_layout, rs_dim)
            | _ ->
              Diag.internal ~pass:"codegen" "coalesced group without a shift request"
          in
          let parts =
            List.map
              (function
                | Rq_shift { rs_array; rs_need; rs_other; _ } ->
                  (rs_array, rs_need, rs_other)
                | Rq_bcast _ ->
                  Diag.internal ~pass:"codegen" "broadcast request in a shift group")
              members
          in
          let nprocs = ctx.st.opts.Options.nprocs in
          Comm.emit_section_comm_multi ~loc ~nprocs ~tag:(fresh ctx.st)
            ~layout ~dim ~parts ()
        end)
      groups
  end

let layout_of_decomp ctx name (d : Decomp.t) : Layout.t =
  Decomp.layout_of d ~bounds:(bounds_of ctx name) ~nprocs:ctx.st.opts.Options.nprocs

(* Node statements for a remap$ pseudo-statement. *)
let emit_remap ctx ~loc (r : Dynamic_decomp.remap) : Node.nstmt list =
  let rank = Symtab.rank ctx.symtab r.Dynamic_decomp.rm_array in
  let kinds =
    match Decomp.dist_dim r.Dynamic_decomp.rm_decomp with
    | None -> List.init rank (fun _ -> Ast.Star)
    | Some (d, k) -> List.init rank (fun i -> if i = d then k else Ast.Star)
  in
  let layout = layout_of_decomp ctx r.Dynamic_decomp.rm_array (Decomp.of_kinds kinds) in
  [ Node.N_remap
      { array = r.Dynamic_decomp.rm_array; new_layout = layout;
        move = r.Dynamic_decomp.rm_move; site = fresh ctx.st; loc } ]

let in_c_owner_mode ctx = ctx.proc_constraint <> Exports.C_none

(* Scalar-result broadcasts for a guarded call. *)
let call_scalar_bcasts ctx ~loc callee actuals root : Node.nstmt list =
  let ex = export_of ctx.st callee in
  let callee_cu = (Acg.proc ctx.st.acg callee).Acg.cu in
  let callee_formals = callee_cu.Sema.unit_.Ast.formals in
  List.concat
    (List.map2
       (fun f a ->
         match a with
         | Ast.Var v
           when Exports.SS.mem f ex.Exports.ex_mod_scalars
                && not (Symtab.is_array ctx.symtab v) ->
           [ Comm.emit_bcast_scalar ~loc ~site:(fresh ctx.st) ~root v ]
         | _ -> [])
       callee_formals actuals)
  @ List.filter_map
      (fun (n, _) ->
        if
          Exports.SS.mem n ex.Exports.ex_mod_scalars
          && not (Symtab.is_array ctx.symtab n)
        then Some (Comm.emit_bcast_scalar ~loc ~site:(fresh ctx.st) ~root n)
        else None)
      (Symtab.commons callee_cu.Sema.symtab)

let rec emit_block ctx (loops : (Ast.stmt * Ast.do_stmt) list) (stmts : Ast.stmt list) :
    Node.nstmt list =
  List.concat_map (emit_stmt ctx loops) stmts

and emit_stmt ctx loops (s : Ast.stmt) : Node.nstmt list =
  let loc = s.Ast.loc in
  let pre = emit_placed ctx ~loc s.Ast.sid in
  let loop_ctxs = List.map (fun (ls, ld) -> loop_ctx_of ctx ls ld) loops in
  let body =
    match Dynamic_decomp.as_remap s with
    | Some r -> emit_remap ctx ~loc r
    | None ->
      if List.mem s.Ast.sid ctx.fallbacks then
        Runtime_res.compile_stmt (runtime_ctx ctx s.Ast.sid) s
      else (
        match s.Ast.kind with
        | Ast.Assign (lhs, rhs) -> (
          match classify_stmt ctx loop_ctxs s with
          | W_replicated -> [ Node.N_assign (lhs, rhs) ]
          | W_owner { wo_index; wo_layout; _ } ->
            if in_c_owner_mode ctx then [ Node.N_assign (lhs, rhs) ]
            else
              [ Node.N_if
                  { cond =
                      Comm.owner_guard ~nprocs:ctx.st.opts.Options.nprocs wo_layout
                        wo_index;
                    then_ = [ Node.N_assign (lhs, rhs) ];
                    else_ = [];
                    loc } ]
          | W_by_loop b -> (
            match partition_of ctx b.wl_lsid with
            | Part_concrete _ | Part_symbolic _ -> [ Node.N_assign (lhs, rhs) ]
            | Unpart ->
              [ Node.N_if
                  { cond =
                      Comm.owner_guard ~nprocs:ctx.st.opts.Options.nprocs b.wl_layout
                        b.wl_index;
                    then_ = [ Node.N_assign (lhs, rhs) ];
                    else_ = [];
                    loc } ])
          | W_fallback -> Runtime_res.compile_stmt (runtime_ctx ctx s.Ast.sid) s)
        | Ast.Do d -> emit_do ctx loops s d
        | Ast.If i ->
          [ Node.N_if
              { cond = i.Ast.cond;
                then_ = emit_block ctx loops i.Ast.then_;
                else_ = emit_block ctx loops i.Ast.else_;
                loc } ]
        | Ast.Call (callee, actuals) -> (
          match classify_stmt ctx loop_ctxs s with
          | W_replicated -> [ Node.N_call (callee, actuals) ]
          | W_owner { wo_index; wo_layout; _ } ->
            if in_c_owner_mode ctx then [ Node.N_call (callee, actuals) ]
            else begin
              let root =
                Comm.owner_expr ~nprocs:ctx.st.opts.Options.nprocs wo_layout wo_index
              in
              Node.N_if
                { cond = Ast.Bin (Ast.Eq, myp, root);
                  then_ = [ Node.N_call (callee, actuals) ];
                  else_ = [];
                  loc }
              :: call_scalar_bcasts ctx ~loc callee actuals root
            end
          | W_by_loop b -> (
            match partition_of ctx b.wl_lsid with
            | Part_concrete _ | Part_symbolic _ ->
              (* processors run disjoint iterations: scalar results cannot
                 be broadcast here and must not escape the loop *)
              (let ex = export_of ctx.st callee in
               if not (Exports.SS.is_empty ex.Exports.ex_mod_scalars) then
                 Diag.warn_to ctx.st.sink
                   "scalar results of %s diverge across the partitioned loop in %s"
                   callee ctx.pname);
              [ Node.N_call (callee, actuals) ]
            | Unpart ->
              (* owner-guarded call inside a replicated loop: all
                 processors reach this point, so scalar results of the
                 callee are broadcast from the owner *)
              let root =
                Comm.owner_expr ~nprocs:ctx.st.opts.Options.nprocs b.wl_layout
                  b.wl_index
              in
              Node.N_if
                { cond = Ast.Bin (Ast.Eq, myp, root);
                  then_ = [ Node.N_call (callee, actuals) ];
                  else_ = [];
                  loc }
              :: call_scalar_bcasts ctx ~loc callee actuals root)
          | W_fallback ->
            Diag.error "cannot instantiate the computation partition for call to %s in %s"
              callee ctx.pname)
        | Ast.Align _ | Ast.Distribute _ -> []
        | Ast.Return -> [ Node.N_return ]
        | Ast.Print args ->
          [ Node.N_if
              { cond = Ast.Bin (Ast.Eq, myp, int_e 0);
                then_ = [ Node.N_print args ];
                else_ = [];
                loc } ])
  in
  pre @ body

and emit_do ctx loops (s : Ast.stmt) (d : Ast.do_stmt) : Node.nstmt list =
  let inner = emit_block ctx (loops @ [ (s, d) ]) d.Ast.body in
  match partition_of ctx s.Ast.sid with
  | Unpart -> [ Node.N_do { var = d.Ast.var; lo = d.Ast.lo; hi = d.Ast.hi;
                            step = d.Ast.step; body = inner } ]
  | Part_concrete { sets; _ } -> (
    match Fit.fit_procset_opt sets with
    | Some { Fit.f_lo; f_hi; f_step; f_guard } ->
      let loop =
        Node.N_do
          { var = d.Ast.var; lo = f_lo; hi = f_hi;
            step = (match f_step with Ast.Int_const 1 -> None | e -> Some e);
            body = inner }
      in
      (match f_guard with
      | None -> [ loop ]
      | Some g -> [ Node.N_if { cond = g; then_ = [ loop ]; else_ = []; loc = s.Ast.loc } ])
    | None ->
      Diag.internal ~pass:"codegen" "missing layout for a partitioned loop")
  | Part_symbolic { layout; dim; shift } -> (
    let nprocs = ctx.st.opts.Options.nprocs in
    let dlo, _ = List.nth layout.Layout.bounds dim in
    match layout.Layout.dist with
    | Layout.Block b ->
      let _, dhi = List.nth layout.Layout.bounds dim in
      let los = Array.init nprocs (fun p -> dlo + (p * b) - shift) in
      let his = Array.init nprocs (fun p -> min dhi (dlo + ((p + 1) * b) - 1) - shift) in
      let lo_e = Ast.Funcall ("max", [ d.Ast.lo; Fit.expr_of_values los ]) in
      let hi_e = Ast.Funcall ("min", [ d.Ast.hi; Fit.expr_of_values his ]) in
      [ Node.N_do { var = d.Ast.var; lo = lo_e; hi = hi_e; step = None; body = inner } ]
    | Layout.Cyclic ->
      (* first iteration >= lo owned by my$p:
         lo + mod(mod(my$p + (dlo - shift) - lo, P) + P, P) *)
      let p_e = int_e nprocs in
      let base = Ast.Bin (Ast.Sub, Ast.Bin (Ast.Add, myp, int_e (dlo - shift)), d.Ast.lo) in
      let m1 = Ast.Funcall ("mod", [ base; p_e ]) in
      let m2 = Ast.Funcall ("mod", [ Ast.Bin (Ast.Add, m1, p_e); p_e ]) in
      let lo_e = Ast.Bin (Ast.Add, d.Ast.lo, m2) in
      [ Node.N_do
          { var = d.Ast.var; lo = lo_e; hi = d.Ast.hi; step = Some p_e; body = inner } ]
    | Layout.Block_cyclic _ | Layout.Replicated ->
      Diag.internal ~pass:"codegen" "unsupported distribution in a symbolic partition")

(* --- Procedure compilation ---------------------------------------------- *)

(* Is [x]'s first touch in this procedure a full overwrite (value kill)? *)
let computes_value_kill ctx (body : Ast.stmt list) (x : string) : bool =
  let touches (s : Ast.stmt) =
    Dynamic_decomp.subtree_uses_array
      ~call_touches:(fun callee args ->
        let ex = export_of ctx.st callee in
        ignore ex;
        List.fold_left
          (fun acc a ->
            match a with
            | Ast.Var v when Symtab.is_array ctx.symtab v -> Dynamic_decomp.SS.add v acc
            | _ -> acc)
          Dynamic_decomp.SS.empty args)
      x s
  in
  let rec first_touch = function
    | [] -> None
    | s :: rest -> if touches s then Some s else first_touch rest
  in
  match first_touch body with
  | None -> false
  | Some s -> (
    match s.Ast.kind with
    | Ast.Call (callee, args) -> (
      match
        List.find_map
          (fun (i, a) ->
            match a with
            | Ast.Var v when String.equal v x -> Some i
            | _ -> None)
          (List.mapi (fun i a -> (i, a)) args)
      with
      | Some idx -> (
        let ex = export_of ctx.st callee in
        match List.nth_opt (Acg.proc ctx.st.acg callee).Acg.cu.Sema.unit_.Ast.formals idx with
        | Some f -> Exports.SS.mem f ex.Exports.ex_value_kill
        | None -> false)
      | None -> false)
    | _ -> (
      match Symtab.array_info ctx.symtab x with
      | Some info -> Dynamic_decomp.fully_overwrites ctx.symtab info.Symtab.dims x s
      | None -> false))

let compile_proc (st : state) (cu : Sema.checked_unit) : Node.nproc =
  let u = cu.Sema.unit_ in
  let pname = u.Ast.uname in
  let symtab = cu.Sema.symtab in
  let nprocs = st.opts.Options.nprocs in
  let ctx0 =
    { st; cu; pname; symtab; formals = u.Ast.formals;
      refs = []; override = SM.empty; partitions = []; fallbacks = [];
      placements = []; pending_out = []; proc_constraint = Exports.C_none;
      mod_scalars = SS.empty }
  in
  (* dynamic decomposition analysis and remap materialization *)
  let dyn = analyze_dyn ctx0 u.Ast.body in
  let ctx = { ctx0 with override = dyn.dyn_override } in
  let body = materialize_remaps ctx dyn u.Ast.body in
  (* remap optimization (interprocedural strategy, caller-side) *)
  let call_touches callee args =
    if String.equal callee "remap$" then Dynamic_decomp.SS.empty
    else begin
      let touched = Side_effects.appear st.effects callee in
      let callee_formals =
        try (Acg.proc st.acg callee).Acg.cu.Sema.unit_.Ast.formals with _ -> []
      in
      if List.length callee_formals <> List.length args then Dynamic_decomp.SS.empty
      else begin
        let through_formals =
          List.fold_left2
            (fun acc f a ->
              match a with
              | Ast.Var v when Side_effects.S.mem f touched ->
                Dynamic_decomp.SS.add v acc
              | _ -> acc)
            Dynamic_decomp.SS.empty callee_formals args
        in
        (* touched COMMON names pass through by identity *)
        Side_effects.S.fold
          (fun n acc ->
            if Symtab.is_common symtab n then Dynamic_decomp.SS.add n acc else acc)
          touched through_formals
      end
    end
  in
  let initial_decomps =
    Symtab.fold symtab
      (fun name entry acc ->
        match entry with
        | Symtab.Array _ ->
          let d =
            if List.mem name u.Ast.formals then
              match SM.find_opt name dyn.dyn_override with
              | Some d -> d
              | None -> inherited_decomp ctx name
            else Decomp.replicated (Symtab.rank symtab name)
          in
          Dynamic_decomp.DM.add name d acc
        | _ -> acc)
      Dynamic_decomp.DM.empty
  in
  let value_killer callee idx =
    let ex = export_of st callee in
    match
      try List.nth_opt (Acg.proc st.acg callee).Acg.cu.Sema.unit_.Ast.formals idx
      with _ -> None
    with
    | Some f -> Exports.SS.mem f ex.Exports.ex_value_kill
    | None -> false
  in
  let body =
    if st.opts.Options.strategy = Options.Interproc then
      Dynamic_decomp.optimize st.opts.Options.remap_level ~call_touches
        ~initial:initial_decomps ~symtab ~value_killer body
    else body
  in
  let ctx = { ctx with refs = Sections.collect symtab body } in
  (* computation partitioning, constraint detection, communication *)
  partition_pass ctx body;
  ctx.proc_constraint <- detect_constraint ctx body;
  comm_pass ctx body;
  let rec fixpoint n =
    if n > 8 then Diag.error "partition/communication fixpoint diverged in %s" pname;
    if demote_loops_with_fallbacks ctx body then begin
      ctx.proc_constraint <- detect_constraint ctx body;
      comm_pass ctx body;
      fixpoint (n + 1)
    end
  in
  fixpoint 0;
  ctx.mod_scalars <-
    (let gmod = Side_effects.gmod st.effects pname in
     let common_scalars =
       List.filter_map
         (fun (n, _) ->
           match Symtab.find symtab n with
           | Some (Symtab.Scalar _) -> Some n
           | _ -> None)
         (Symtab.commons symtab)
     in
     List.fold_left
       (fun acc f ->
         match Symtab.find symtab f with
         | Some (Symtab.Scalar _) when Side_effects.S.mem f gmod -> SS.add f acc
         | _ -> acc)
       SS.empty
       (u.Ast.formals @ common_scalars));
  (* emission *)
  let main_body = emit_block ctx [] body in
  let prologue = Node.N_assign (Ast.Var "my$p", Ast.Funcall ("myproc", [])) in
  let emitted, scalar_bcasts_at_end =
    match (st.opts.Options.strategy, ctx.proc_constraint) with
    | Options.Immediate, Exports.C_owner { co_array; co_dim = _; co_index } ->
      (* self-guarded body; broadcasts hoisted outside the guard *)
      let layout =
        layout_of_decomp ctx co_array
          (match SM.find_opt co_array ctx.override with
          | Some d -> d
          | None -> inherited_decomp ctx co_array)
      in
      let index = Affine.to_expr co_index in
      let root = Comm.owner_expr ~nprocs layout index in
      (* separate top-level broadcast statements (collectives must involve
         every processor) from the guarded computation *)
      let colls, rest =
        List.partition (function Node.N_bcast _ -> true | _ -> false) main_body
      in
      let guarded_body =
        colls
        @ [ Node.N_if
              { cond = Ast.Bin (Ast.Eq, myp, root); then_ = rest; else_ = []; loc = Loc.none } ]
      in
      let bcasts =
        List.filter_map
          (fun f ->
            if SS.mem f ctx.mod_scalars then
              Some (Comm.emit_bcast_scalar ~site:(fresh st) ~root f)
            else None)
          u.Ast.formals
      in
      (guarded_body, bcasts)
    | _ -> (main_body, [])
  in
  (* exports *)
  let export =
    { Exports.ex_proc = pname;
      ex_constraint =
        (if st.opts.Options.strategy = Options.Interproc then ctx.proc_constraint
         else Exports.C_none);
      ex_comms = (if st.opts.Options.strategy = Options.Interproc then ctx.pending_out else []);
      ex_before = (if st.opts.Options.strategy = Options.Interproc then dyn.dyn_before else []);
      ex_after = (if st.opts.Options.strategy = Options.Interproc then dyn.dyn_after else []);
      ex_use =
        List.fold_left
          (fun acc f ->
            if
              Symtab.is_array symtab f
              && (not (SM.mem f dyn.dyn_override))
              && Side_effects.S.mem f (Side_effects.appear st.effects pname)
            then Exports.SS.add f acc
            else acc)
          Exports.SS.empty
          (u.Ast.formals @ List.map fst (Symtab.commons symtab));
      ex_kill =
        SM.fold (fun f _ acc -> Exports.SS.add f acc) dyn.dyn_override Exports.SS.empty;
      ex_mod_scalars = SS.fold Exports.SS.add ctx.mod_scalars Exports.SS.empty;
      ex_value_kill =
        List.fold_left
          (fun acc f ->
            if Symtab.is_array symtab f && computes_value_kill ctx u.Ast.body f then
              Exports.SS.add f acc
            else acc)
          Exports.SS.empty
          (u.Ast.formals @ List.map fst (Symtab.commons symtab)) }
  in
  Hashtbl.replace st.exports pname export;
  (* node procedure assembly *)
  let arrays =
    List.map
      (fun (name, (info : Symtab.array_info)) ->
        let layout =
          if List.mem name u.Ast.formals then
            layout_of_decomp ctx name
              (match SM.find_opt name dyn.dyn_override with
              | Some d -> d
              | None -> inherited_decomp ctx name)
          else Layout.replicated info.Symtab.dims
        in
        { Node.ad_name = name; ad_elt = info.Symtab.elt; ad_layout = layout })
      (Symtab.arrays symtab)
  in
  let scalars =
    Symtab.fold symtab
      (fun name entry acc ->
        match entry with Symtab.Scalar ty -> (name, ty) :: acc | _ -> acc)
      []
  in
  { Node.np_name = pname;
    np_formals = u.Ast.formals;
    np_arrays = arrays;
    np_scalars = scalars;
    np_body = fold_params symtab ((prologue :: emitted) @ scalar_bcasts_at_end) }

(* --- Run-time resolution strategy ---------------------------------------- *)

(* Tolerant inherited decomposition: with cloning disabled a formal may
   have several inherited decompositions; pick one for the (informational)
   declaration layout. *)
let inherited_decomp_any ctx (x : string) : Decomp.t =
  let fact = Reaching_decomps.reaching_of ctx.st.rd ctx.pname in
  let rank = Symtab.rank ctx.symtab x in
  match SM.find_opt x fact with
  | Some r -> (
    match Decomp.Set.elements r.Decomp.decomps with
    | d :: _ -> d
    | [] -> Decomp.replicated rank)
  | None -> Decomp.replicated rank

let compile_proc_runtime_res (st : state) (cu : Sema.checked_unit) : Node.nproc =
  let u = cu.Sema.unit_ in
  let symtab = cu.Sema.symtab in
  let ctx0 =
    { st; cu; pname = u.Ast.uname; symtab; formals = u.Ast.formals;
      refs = []; override = SM.empty; partitions = []; fallbacks = [];
      placements = []; pending_out = []; proc_constraint = Exports.C_none;
      mod_scalars = SS.empty }
  in
  let dyn = analyze_dyn ctx0 u.Ast.body in
  let body = materialize_remaps ctx0 dyn u.Ast.body in
  let rec emit stmts =
    List.concat_map
      (fun (s : Ast.stmt) ->
        match Dynamic_decomp.as_remap s with
        | Some r -> emit_remap ctx0 ~loc:s.Ast.loc r
        | None -> (
          match s.Ast.kind with
          | Ast.Do d ->
            [ Node.N_do
                { var = d.Ast.var; lo = d.Ast.lo; hi = d.Ast.hi; step = d.Ast.step;
                  body = emit d.Ast.body } ]
          | Ast.If i ->
            Runtime_res.compile_stmt (runtime_ctx ctx0 s.Ast.sid)
              { s with kind = Ast.If { i with then_ = []; else_ = [] } }
            |> List.map (function
                 | Node.N_if { cond; loc; _ } ->
                   Node.N_if
                     { cond; then_ = emit i.Ast.then_; else_ = emit i.Ast.else_;
                       loc }
                 | other -> other)
          | _ -> Runtime_res.compile_stmt (runtime_ctx ctx0 s.Ast.sid) s))
      stmts
  in
  let emitted = emit body in
  let arrays =
    List.map
      (fun (name, (info : Symtab.array_info)) ->
        let layout =
          if List.mem name u.Ast.formals then
            layout_of_decomp ctx0 name (inherited_decomp_any ctx0 name)
          else Layout.replicated info.Symtab.dims
        in
        { Node.ad_name = name; ad_elt = info.Symtab.elt; ad_layout = layout })
      (Symtab.arrays symtab)
  in
  let scalars =
    Symtab.fold symtab
      (fun name entry acc ->
        match entry with Symtab.Scalar ty -> (name, ty) :: acc | _ -> acc)
      []
  in
  { Node.np_name = u.Ast.uname;
    np_formals = u.Ast.formals;
    np_arrays = arrays;
    np_scalars = scalars;
    np_body =
      fold_params symtab
        (Node.N_assign (Ast.Var "my$p", Ast.Funcall ("myproc", [])) :: emitted) }

(* --- Program compilation -------------------------------------------------- *)

type compiled = {
  program : Node.program;
  clone_result : Cloning.result;
  state : state;
}

(* The analysis phases are exposed individually so the pass manager
   (Pipeline) can time, dump and verify each one. *)

let clone ~sink (opts : Options.t) (cp : Sema.checked_program) : Cloning.result =
  match opts.Options.strategy with
  | Options.Runtime_resolution -> { Cloning.cp; origin = Cloning.SM.empty; clones_made = 0 }
  | Options.Interproc | Options.Immediate -> Cloning.apply ~sink opts cp

let build_acg (cp : Sema.checked_program) : Acg.t =
  let acg = Acg.build cp in
  if Acg.is_recursive acg then Diag.error "recursive programs are not supported";
  acg

let compile_analyzed ~sink (opts : Options.t)
    ~(clone_result : Cloning.result) ~(acg : Acg.t) ~(rd : Reaching_decomps.t)
    ~(effects : Side_effects.t) : compiled =
  let cp = clone_result.Cloning.cp in
  (* Fortran D forbids dynamic decomposition of aliased variables
     (Section 6.4); reject such programs before generating code. *)
  Aliasing.check ~sink acg effects;
  let st =
    { opts; sink; acg; rd; effects; counter = 0; exports = Hashtbl.create 16;
      partition_log = [];
      pseudo_sids = Dynamic_decomp.new_sids () }
  in
  let compile_one name =
    let cu = (Acg.proc acg name).Acg.cu in
    match opts.Options.strategy with
    | Options.Runtime_resolution -> compile_proc_runtime_res st cu
    | Options.Interproc | Options.Immediate -> compile_proc st cu
  in
  let procs = List.map compile_one (Acg.reverse_topo_order acg) in
  (* keep source order stable for readability: main last compiled, list as
     source order *)
  let order = List.map (fun p -> p.Acg.pname) (Acg.procs acg) in
  let procs =
    List.filter_map
      (fun name -> List.find_opt (fun np -> String.equal np.Node.np_name name) procs)
      order
  in
  (* COMMON storage: collected from the main unit (Sema guarantees every
     unit declares each block identically); initial layouts are
     replicated — DISTRIBUTE statements materialize remaps *)
  let main_cu = (Acg.proc acg cp.Sema.main).Acg.cu in
  let common_arrays, common_scalars =
    List.fold_left
      (fun (arrs, scals) (name, _block) ->
        match Symtab.find_exn main_cu.Sema.symtab name with
        | Symtab.Array info ->
          ( arrs
            @ [ { Node.ad_name = name; ad_elt = info.Symtab.elt;
                  ad_layout = Layout.replicated info.Symtab.dims } ],
            scals )
        | Symtab.Scalar ty -> (arrs, scals @ [ (name, ty) ])
        | _ -> (arrs, scals))
      ([], [])
      (Symtab.commons main_cu.Sema.symtab)
  in
  { program =
      { Node.n_procs = procs; n_main = cp.Sema.main; n_nprocs = opts.Options.nprocs;
        n_common_arrays = common_arrays; n_common_scalars = common_scalars };
    clone_result;
    state = st }
