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

type partition =
  | Unpart
  | Part_closed of { fam : Lanes.family; p_guard_info : guard_info }
      (* each processor's iterations, in closed form *)
  | Part_symbolic of { layout : Layout.t; dim : int; shift : int }
      (* loop bounds are run-time expressions; the loop distributes via
         symbolic block clipping or cyclic alignment *)

and guard_info = { g_array : string; g_dim : int; g_layout : Layout.t }

(* One DO loop's partition decision, as the partition pass made it. *)
type decision = { d_proc : string; d_sid : int; d_var : string; d_part : partition }

(* One shift read A(v+c) on A's distributed dimension that needs
   nonlocal data under its loop's owner-computes partition. *)
type shift = { sh_proc : string; sh_array : string; sh_dim : int; sh_offset : int }

(* What one statement's messages were computed under: its procedure and
   sid, the partitions of its enclosing loops (outermost first) and the
   procedure's owner constraint. *)
type msg_key =
  { mk_proc : string; mk_sid : int; mk_parts : partition list; mk_constraint : Exports.constraint_ }

(* Every evaluation of a statement's messages, and every reuse of one. *)
type msg_work = { mutable evaluated : msg_key list; mutable reused : msg_key list }

type state = {
  opts : Options.t;
  sink : Diag.sink;  (* per-run diagnostic sink for codegen warnings *)
  acg : Acg.t;
  rd : Reaching_decomps.t;
  effects : Side_effects.t;
  mutable counter : int;  (* fresh tags / sites / temporaries *)
  exports : (string, Exports.t) Hashtbl.t;
  mutable decisions : decision list;  (* every loop's partition, newest first *)
  mutable shifts : shift list;  (* every shift read that needs nonlocal data *)
  pseudo_sids : Dynamic_decomp.sids;  (* ids of this compile's remap$ statements *)
  flow : Dataflow.work;  (* this compile's remap and liveness solves *)
  msgs : msg_work;  (* this compile's message evaluations, newest first *)
  mutable must_reach : string list;
      (* compiled procedures an owner guard may not skip: they print or
         remap, themselves or below *)
  remapped : (string, Side_effects.S.t) Hashtbl.t;
      (* interface names each compiled procedure remaps, itself or below *)
}

let fresh st =
  st.counter <- st.counter + 1;
  st.counter

let export_of st name =
  match Hashtbl.find_opt st.exports name with
  | Some e -> e
  | None -> Exports.empty name

(* --- Per-procedure context --------------------------------------------- *)

type wclass =
  | W_replicated
  | W_by_loop of { wl_lsid : int; wl_array : string; wl_dim : int; wl_shift : int;
                   wl_layout : Layout.t; wl_index : Ast.expr }
  | W_owner of { wo_array : string; wo_dim : int; wo_index : Ast.expr;
                 wo_layout : Layout.t }
  | W_fallback

type proc_ctx = {
  st : state;
  cu : Sema.checked_unit;
  pname : string;
  symtab : Symtab.t;
  interface : string list;  (* formals, then COMMON names: what callers see *)
  refs : Sections.ref_info list;
  writes : Sections.ref_info list;  (* stores and call effects, for placement *)
  override : Decomp.t SM.t;  (* formals whose Before-remap was exported *)
  reads : (int, Sections.ref_info) Hashtbl.t;  (* by stmt sid; [find_all] keeps [refs] order *)
  dists : (int * string, (int * Layout.t) option) Hashtbl.t;  (* [dist_info] *)
  loop_ctxs : (int, Sections.loop_ctx) Hashtbl.t;   (* by DO sid *)
  (* analysis results filled by pre-passes *)
  classes : (int, wclass) Hashtbl.t;                (* stmt sid -> its site's class *)
  partitions : (int, partition) Hashtbl.t;          (* loop sid -> decision *)
  memo : (int, (msg_key * outcome list) list) Hashtbl.t;  (* [messages] by stmt sid *)
  mutable fallbacks : int list;                     (* stmt sids compiled via run-time resolution *)
  placements : (int, request) Hashtbl.t;            (* emit requests before stmt sid *)
  mutable pending_out : Exports.pending list;       (* delayed to callers *)
  mutable proc_constraint : Exports.constraint_;
  mutable mod_scalars : SS.t;
}

and request =
  | Rq_shift of {
      rs_array : string;
      rs_layout : Layout.t;
      rs_dim : int;
      rs_need : Lanes.family;
      rs_other : Comm.other_dim list;
    }
  | Rq_bcast of {
      rb_array : string;
      rb_layout : Layout.t;
      rb_dim : int;
      rb_index : Ast.expr;
      rb_other : Comm.other_dim list;
    }

(* What one read needs: run-time resolution of its statement, a message
   placed before a statement, or a message exported to the callers. *)
and outcome = Fallback | Place of int * request | Export of Exports.pending

(* --- Environment helpers ----------------------------------------------- *)

let is_pseudo_sid sid = sid >= Dynamic_decomp.pseudo_sid_base

(* [tbl]'s value at [key], computed by [f] the first time. *)
let memo tbl key f =
  match Hashtbl.find tbl key with
  | v -> v
  | exception Not_found ->
    let v = f () in
    Hashtbl.add tbl key v;
    v

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
  memo ctx.dists (sid, name) (fun () ->
      if not (Symtab.is_array ctx.symtab name) then None
      else
        let d = decomp_of ctx sid name in
        match Decomp.dist_dim d with
        | None -> None
        | Some (dim, _) ->
          let layout =
            Decomp.layout_of d ~bounds:(bounds_of ctx name) ~nprocs:ctx.st.opts.Options.nprocs
          in
          Some (dim, layout))

let inherits ctx x = List.mem x ctx.interface

(* Affine form over exportable scalars only (plus constants): callers
   translate it through the call's bindings. *)
let formal_affine ctx (e : Ast.expr) : Affine.t option =
  match Affine.of_expr ctx.symtab e with
  | Some a
    when List.for_all
           (fun v ->
             inherits ctx v
             && match Symtab.find ctx.symtab v with Some (Symtab.Scalar _) -> true | _ -> false)
           (Affine.vars a) ->
    Some a
  | _ -> None

(* --- Call-site binding ---------------------------------------------------- *)

(* Every callee fact reaches the caller through [Acg.bindings]: formals
   bind to actuals, COMMON names to themselves.  Each site below keeps
   its own question; only the pairing is shared. *)
let binding_map ctx callee actuals : Ast.expr SM.t =
  SM.of_seq (List.to_seq (Acg.bindings ctx.st.acg callee actuals))

(* The caller array bound to callee name [name], if any. *)
let bound_array ctx (b : Ast.expr SM.t) name =
  match SM.find_opt name b with
  | Some (Ast.Var v) when Symtab.is_array ctx.symtab v -> Some v
  | _ -> None

(* The caller arrays bound to the callee names in [names]. *)
let bound_arrays ctx callee actuals (names : Side_effects.S.t) : string list =
  List.filter_map
    (fun (f, a) ->
      match a with
      | Ast.Var v when Side_effects.S.mem f names && Symtab.is_array ctx.symtab v -> Some v
      | _ -> None)
    (Acg.bindings ctx.st.acg callee actuals)

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

(* The loop in [loops] that [a] indexes as [v + c] (the only loop
   variable in [a], coefficient 1), with the shift [c]. *)
let unit_stride_in (loops : Sections.loop_ctx list) (a : Affine.t) =
  match List.filter (fun l -> Affine.coeff_of l.Sections.lvar a <> 0) loops with
  | [ l ]
    when Affine.coeff_of l.Sections.lvar a = 1
         && Affine.is_const (Affine.drop_var l.Sections.lvar a) ->
    Some (l, Affine.constant (Affine.drop_var l.Sections.lvar a))
  | _ -> None

let loop_free (loops : Sections.loop_ctx list) (a : Affine.t) =
  not (List.exists (fun l -> Affine.coeff_of l.Sections.lvar a <> 0) loops)

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
      | Some a when loop_free loops a ->
        W_owner { wo_array = name; wo_dim = dim; wo_index = sub; wo_layout = layout }
      | Some a -> (
        match unit_stride_in loops a with
        | Some (l, shift) ->
          W_by_loop
            { wl_lsid = l.Sections.lsid; wl_array = name; wl_dim = dim; wl_shift = shift;
              wl_layout = layout; wl_index = sub }
        | None -> W_fallback)))
  | _ -> W_fallback

(* Classify a call through its callee's exported constraint. *)
let classify_call ctx (loops : Sections.loop_ctx list) sid callee (actuals : Ast.expr list)
    : wclass =
  match (export_of ctx.st callee).Exports.ex_constraint with
  | Exports.C_none -> W_replicated
  | Exports.C_owner { co_array; co_dim; co_index } -> (
    let b = binding_map ctx callee actuals in
    match bound_array ctx b co_array with
    | None -> W_fallback
    | Some actual_array -> (
      match dist_info ctx sid actual_array with
      | None ->
        (* the callee was compiled expecting a distribution; cloning
           guarantees consistency, so this means replicated: run everywhere *)
        W_replicated
      | Some (dim, _) when dim <> co_dim -> W_fallback
      | Some (dim, layout) -> (
        match subst_affine b co_index with
        | None -> W_fallback
        | Some index_expr -> (
          match Option.bind (Affine.of_expr ctx.symtab index_expr) (unit_stride_in loops) with
          | Some (l, shift) ->
            W_by_loop
              { wl_lsid = l.Sections.lsid; wl_array = actual_array; wl_dim = dim;
                wl_shift = shift; wl_layout = layout; wl_index = index_expr }
          | None ->
            W_owner
              { wo_array = actual_array; wo_dim = dim; wo_index = index_expr;
                wo_layout = layout }))))

(* Classification of any statement's computation partition. *)
let classify_stmt ctx loops (s : Ast.stmt) : wclass =
  match s.Ast.kind with
  | Ast.Assign (lhs, _) -> classify_store ctx loops s.Ast.sid lhs
  | Ast.Call (callee, actuals) when Dynamic_decomp.as_remap s = None ->
    classify_call ctx loops s.Ast.sid callee actuals
  | _ -> W_replicated

(* --- Loop partition pre-pass ------------------------------------------- *)

(* The loop's iterations as an ascending triplet: a descending loop
   [do i = a, b, -k] runs the members of [a - k*((a-b)/k) : a : k]. *)
let triplet_of_loop (l : Sections.loop_ctx) : Triplet.t option =
  match (l.Sections.llo, l.Sections.lhi) with
  | Some lo, Some hi -> (
    let k = l.Sections.lstep in
    match (Affine.const_value lo, Affine.const_value hi) with
    | Some a, Some b when k >= 1 -> Some (Triplet.make ~lo:a ~hi:b ~step:k)
    | Some a, Some b when k <= -1 ->
      if a < b then Some Triplet.empty
      else Some (Triplet.make ~lo:(a - ((a - b) / -k * -k)) ~hi:a ~step:(-k))
    | _ -> None)
  | _ -> None

let loop_ctx_of ctx (s : Ast.stmt) (d : Ast.do_stmt) =
  memo ctx.loop_ctxs s.Ast.sid (fun () -> Sections.loop_ctx ctx.symtab s d)

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
  match Hashtbl.find ctx.partitions lsid with p -> p | exception Not_found -> Unpart

(* --- Placement: message vectorization ------------------------------------ *)

let in_c_owner_mode ctx = ctx.proc_constraint <> Exports.C_none

let remapped_by st callee =
  Option.value (Hashtbl.find_opt st.remapped callee) ~default:Side_effects.S.empty

(* Does [stmts] remap [array], itself or through a callee? *)
let remaps ctx array (stmts : Ast.stmt list) =
  let found = ref false in
  Ast.iter_stmts
    (fun s ->
      match s.Ast.kind with
      | Ast.Call (callee, actuals)
        when Dynamic_decomp.is_remap_of array s
             || Dynamic_decomp.as_remap s = None
                && List.mem array (bound_arrays ctx callee actuals (remapped_by ctx.st callee)) ->
        found := true
      | _ -> ())
    stmts;
  !found

(* A callee's subscript as a caller affine form, when it has one. *)
let odim_affine ctx b (o : Exports.odim) =
  match o with
  | Exports.Oc_const c -> Some (Affine.const c)
  | Exports.Oc_formal a -> Option.bind (subst_affine b a) (Affine.of_expr ctx.symtab)
  | Exports.Oc_range _ | Exports.Oc_full _ -> None

(* [x] inserted as dimension [dim] among the other dimensions. *)
let with_dim dim x others =
  List.filteri (fun i _ -> i < dim) others @ (x :: List.filteri (fun i _ -> i >= dim) others)

(* One write per caller array a call modifies.  Its distributed
   subscript is the callee's constraint index when the call is
   partitioned or owner-guarded, its other subscripts those of the
   callee's delayed shift; anything else is unknown. *)
let call_writes ctx ~loops ~cls (s : Ast.stmt) callee actuals : Sections.ref_info list =
  let b = binding_map ctx callee actuals in
  let constrained =
    match cls with
    | W_by_loop { wl_array = a; wl_index = e; _ } | W_owner { wo_array = a; wo_index = e; _ } ->
      Some (a, e)
    | W_replicated | W_fallback -> None
  in
  List.map
    (fun v ->
      let rank = Symtab.rank ctx.symtab v in
      let subs =
        match dist_info ctx s.Ast.sid v with
        | None -> List.init rank (fun _ -> None)
        | Some (dim, _) ->
          let index =
            match constrained with
            | Some (a, e) when String.equal a v -> Affine.of_expr ctx.symtab e
            | _ -> None
          in
          let others =
            List.find_map
              (function
                | Exports.P_shift { ps_array; ps_write_other = Some wo; _ }
                  when bound_array ctx b ps_array = Some v ->
                  Some (List.map (odim_affine ctx b) wo)
                | _ -> None)
              (export_of ctx.st callee).Exports.ex_comms
          in
          with_dim dim index (Option.value others ~default:(List.init (rank - 1) (fun _ -> None)))
      in
      { Sections.array = v; sid = s.Ast.sid; is_write = true; subs; loops })
    (bound_arrays ctx callee actuals (Side_effects.gmod ctx.st.effects callee))


(* Message vectorization (paper Section 5).  Communication for [read]
   climbs out of its enclosing loops, innermost first, and crosses loop
   L only when no write inside L has a true dependence onto the read
   carried at L's level or deeper, no earlier statement inside L writes
   it loop-independently, nothing inside L remaps the array, and the
   message's distributed [index] (None: unknown) does not vary in L.
   Returns the loops crossed, outermost first, and whether the message
   may also leave the whole body, i.e. go to the callers.  An
   owner-constrained body runs on one owner, which writes only elements
   it owns, so there only remaps hold a message back. *)
let place ctx ~(read : Sections.ref_info) ~index (enclosing : (Ast.stmt * Ast.do_stmt) list) =
  let writes = if in_c_owner_mode ctx then [] else ctx.writes in
  let held ~level ~inside =
    List.exists
      (fun (w : Sections.ref_info) ->
        String.equal w.Sections.array read.Sections.array
        && inside w
        &&
        let d = Dependence.true_dep w read in
        List.exists (fun l -> l >= level) d.Dependence.carried
        || (d.Dependence.loop_independent && w.Sections.sid < read.Sections.sid))
      writes
  in
  let rec climb crossed level = function
    | [] ->
      ( crossed,
        not
          (held ~level:1 ~inside:(fun _ -> true)
          || Side_effects.S.mem read.Sections.array (remapped_by ctx.st ctx.pname)) )
    | ((s : Ast.stmt), (d : Ast.do_stmt)) :: outer ->
      let inside (w : Sections.ref_info) =
        List.exists (fun l -> l.Sections.lsid = s.Ast.sid) w.Sections.loops
      in
      if
        Option.fold index ~none:true ~some:(fun a -> Affine.coeff_of d.Ast.var a <> 0)
        || held ~level ~inside
        || remaps ctx read.Sections.array d.Ast.body
      then (crossed, false)
      else climb ((s, d) :: crossed) (level - 1) outer
  in
  climb [] (List.length enclosing) (List.rev enclosing)

(* The statement a message placed outside [crossed] goes before. *)
let placed_at sid = function [] -> sid | ((s : Ast.stmt), _) :: _ -> s.Ast.sid

let over_loops ctx crossed = List.map (fun (s, d) -> loop_ctx_of ctx s d) crossed

(* The read's other dimensions widened over the crossed loops: the
   run-time forms, and the forms a subroutine exports to its callers
   when the read may be exported at all (it leaves the whole body under
   the interprocedural strategy, callers see the array, every dimension
   translates). *)
let widen_others ctx (r : Sections.ref_info) dim crossed ~whole :
    Comm.other_dim list * Exports.odim list option =
  let widened =
    List.combine r.Sections.subs (bounds_of ctx r.Sections.array)
    |> List.filteri (fun i _ -> i <> dim)
    |> List.map (fun (sub, (lo, hi)) ->
           match sub with
           | None -> (Comm.Od_full (lo, hi), Some (Exports.Oc_full (lo, hi)))
           | Some sa ->
             widen_other_dim ctx (over_loops ctx crossed) (Affine.to_expr sa) (lo, hi))
  in
  ( List.map fst widened,
    if
      whole
      && ctx.st.opts.Options.strategy = Options.Interproc
      && ctx.cu.Sema.unit_.Ast.ukind = Ast.Subroutine
      && inherits ctx r.Sections.array
    then Listx.all_some (List.map snd widened)
    else None )

(* A caller-side other dimension widened over the crossed loops. *)
let widen_od ctx crossed (od : Comm.other_dim) (lo, hi) =
  let over = over_loops ctx crossed in
  let fixed e =
    over = [] || Option.fold (Affine.of_expr ctx.symtab e) ~none:false ~some:(loop_free over)
  in
  match od with
  | Comm.Od_point e when not (fixed e) -> fst (widen_other_dim ctx over e (lo, hi))
  | Comm.Od_range (a, b) when not (fixed a && fixed b) -> Comm.Od_full (lo, hi)
  | od -> od

(* [place], or None when the message would stay inside a loop that
   [part] partitions: every processor must reach it. *)
let place_outside ctx ~part ~read ~index loops =
  let crossed, whole = place ctx ~read ~index loops in
  let partitioned ((s : Ast.stmt), _) = (not (List.mem_assq s crossed)) && part s.Ast.sid <> Unpart in
  if List.exists partitioned loops then None else Some (crossed, whole)

(* What one distributed read needs under the loop partitions [part].
   [stmt_class] is the classification of the statement containing it,
   [loops] its enclosing loops.  A shift that needs nonlocal data joins
   [ctx.st.shifts], whether its message is placed, exported or left to
   run-time resolution, which fetches the same elements. *)
let process_read ctx ~part (r : Sections.ref_info) (stmt_class : wclass) loops =
  let fallback = Some Fallback in
  (* Place the message where [place] lets it go, or export it.  Every
     processor must reach it, so it may not stay in a partitioned loop. *)
  let deliver dim ~index ~export request =
    match place_outside ctx ~part ~read:r ~index loops with
    | None -> fallback
    | Some (crossed, whole) -> (
      match (widen_others ctx r dim crossed ~whole, export) with
      | (_, Some ocs), Some export -> Some (Export (export ocs))
      | (ods, _), _ -> Some (Place (placed_at r.Sections.sid crossed, request ods)))
  in
  match dist_info ctx r.Sections.sid r.Sections.array with
  | None -> None
  | Some (dim, layout) -> (
    match List.nth r.Sections.subs dim with
    | None -> fallback
    | Some a when loop_free r.Sections.loops a ->
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
          | None -> wo_index = index_expr)
        | W_by_loop _ -> false
        | _ -> (
          (* inside a C_owner procedure everything runs on one owner *)
          match (ctx.proc_constraint, formal_affine ctx index_expr) with
          | Exports.C_owner { co_index; _ }, Some fa -> Affine.equal fa co_index
          | _ -> false)
      in
      if local then None
      else
        deliver dim ~index:(Some a)
          ~export:
            (Option.map
               (fun fa ocs ->
                 Exports.P_invariant
                   { pi_array = r.Sections.array; pi_dim = dim; pi_index = fa; pi_other = ocs })
               (formal_affine ctx index_expr))
          (fun ods ->
            Rq_bcast
              { rb_array = r.Sections.array; rb_layout = layout; rb_dim = dim;
                rb_index = index_expr; rb_other = ods })
    | Some a -> (
      match unit_stride_in r.Sections.loops a with
      | None -> fallback
      | Some (l, c) -> (
        (* shift pattern relative to loop l *)
        match part l.Sections.lsid with
        | Part_closed { fam; p_guard_info } ->
          if (not (Layout.equal p_guard_info.g_layout layout)) || p_guard_info.g_dim <> dim
          then fallback
          else begin
            let need = Lanes.shift c fam in
            (* the other-dim subscripts of every write to the array, when
               they agree, for the caller's dependence test *)
            let write_other =
              List.filter_map
                (fun (w : Sections.ref_info) ->
                  if not (String.equal w.Sections.array r.Sections.array) then None
                  else
                    Some
                      (List.filteri (fun i _ -> i <> dim) w.Sections.subs
                      |> List.map (fun sub ->
                             Option.bind sub (fun sa ->
                                 Option.map
                                   (fun fa -> Exports.Oc_formal fa)
                                   (formal_affine ctx (Affine.to_expr sa))))
                      |> Listx.all_some))
                ctx.writes
            in
            let nprocs = ctx.st.opts.Options.nprocs in
            if (Layout.nonlocal layout ~nprocs need).Lanes.runs = [] then None
            else begin
              ctx.st.shifts <-
                { sh_proc = ctx.pname; sh_array = r.Sections.array; sh_dim = dim; sh_offset = c }
                :: ctx.st.shifts;
              (* the message covers every iteration of l: its index is fixed *)
              deliver dim ~index:(Some (Affine.const 0))
                ~export:
                  (Some
                     (fun ocs ->
                       Exports.P_shift
                         { ps_array = r.Sections.array; ps_dim = dim; ps_need = need;
                           ps_other = ocs;
                           ps_write_other =
                             (match List.sort_uniq compare write_other with
                             | [ o ] -> o
                             | _ -> None) }))
                (fun ods ->
                  Rq_shift
                    { rs_array = r.Sections.array; rs_layout = layout; rs_dim = dim;
                      rs_need = need; rs_other = ods })
            end
          end
        | Part_symbolic _ ->
          (* symbolic partitions support owner-aligned reads only *)
          if c <> 0 then fallback else None
        | Unpart ->
          (* read scans a distributed dimension from replicated code *)
          fallback)))

(* A callee's pending communications instantiated at a call, as reads
   at the call placed by the same rule as the caller's own. *)
let process_call_pendings ctx ~part (loops : (Ast.stmt * Ast.do_stmt) list) sid callee actuals =
  let ex = export_of ctx.st callee in
  let bindings = binding_map ctx callee actuals in
  let fallback = Some Fallback in
  let subst_odim (o : Exports.odim) : Comm.other_dim option =
    match o with
    | Exports.Oc_const c -> Some (Comm.Od_point (int_e c))
    | Exports.Oc_full (lo, hi) -> Some (Comm.Od_full (lo, hi))
    | Exports.Oc_formal a -> Option.map (fun e -> Comm.Od_point e) (subst_affine bindings a)
    | Exports.Oc_range (a, b) -> (
      match (subst_affine bindings a, subst_affine bindings b) with
      | Some ea, Some eb -> Some (Comm.Od_range (ea, eb))
      | _ -> None)
  in
  (* Place the request for the callee's read of [name] in dimension
     [pdim] when the caller array is distributed there.  [index] is a
     broadcast's subscript; a shift's needed sets are fixed. *)
  let deliver name pdim ~index others request =
    match bound_array ctx bindings name with
    | None -> fallback
    | Some arr -> (
      match (dist_info ctx sid arr, Listx.all_some (List.map subst_odim others)) with
      | None, _ -> None  (* replicated at the call: data available everywhere *)
      | Some (dim, _), _ when dim <> pdim -> fallback
      | Some _, None -> fallback
      | Some (dim, layout), Some ods -> (
        let sub = Option.bind index (Affine.of_expr ctx.symtab) in
        let read =
          { Sections.array = arr; sid; is_write = false;
            subs = with_dim dim sub (List.map (odim_affine ctx bindings) others);
            loops = List.map (fun (s, d) -> loop_ctx_of ctx s d) loops }
        in
        let index = if index = None then Some (Affine.const 0) else sub in
        match place_outside ctx ~part ~read ~index loops with
        | None -> fallback
        | Some (crossed, _) ->
          let bounds = List.filteri (fun i _ -> i <> dim) (bounds_of ctx arr) in
          Some
            (Place
               ( placed_at sid crossed,
                 request arr layout (List.map2 (widen_od ctx crossed) ods bounds) ))))
  in
  List.filter_map
    (fun (p : Exports.pending) ->
      match p with
      | Exports.P_invariant { pi_array; pi_dim; pi_index; pi_other } -> (
        match subst_affine bindings pi_index with
        | None -> fallback
        | Some index_expr ->
          deliver pi_array pi_dim ~index:(Some index_expr) pi_other (fun arr layout others ->
              Rq_bcast
                { rb_array = arr; rb_layout = layout; rb_dim = pi_dim; rb_index = index_expr;
                  rb_other = others }))
      | Exports.P_shift { ps_array; ps_dim; ps_need; ps_other; _ } ->
        deliver ps_array ps_dim ~index:None ps_other (fun arr layout others ->
            Rq_shift
              { rs_array = arr; rs_layout = layout; rs_dim = ps_dim; rs_need = ps_need;
                rs_other = others }))
    ex.Exports.ex_comms

(* --- One partition rule (DESIGN §6m) ---------------------------------- *)

(* Every statement once, DO and IF headers included, with its enclosing
   loops and its class: loop partitions, the owner constraint, placement's
   writes and emission all read this one walk, which classifies each
   statement once and records its class in [ctx.classes]. *)
type site = {
  stmt : Ast.stmt;
  nest : (Ast.stmt * Ast.do_stmt) list;  (* enclosing loops, outermost first *)
  encl : Sections.loop_ctx list;  (* the same, as loop contexts *)
  cls : wclass;
}

let classify_body ctx (body : Ast.stmt list) : site list =
  let rec walk nest encl =
    List.concat_map (fun (s : Ast.stmt) ->
        let cls = classify_stmt ctx encl s in
        Hashtbl.replace ctx.classes s.Ast.sid cls;
        let site = { stmt = s; nest; encl; cls } in
        match s.Ast.kind with
        | Ast.Do d -> site :: walk (nest @ [ (s, d) ]) (encl @ [ loop_ctx_of ctx s d ]) d.Ast.body
        | Ast.If i -> (site :: walk nest encl i.Ast.then_) @ walk nest encl i.Ast.else_
        | _ -> [ site ])
  in
  walk [] [] body

(* The writes placement must respect: the stores, then the calls'. *)
let collect_writes ctx sites : Sections.ref_info list =
  List.filter (fun (r : Sections.ref_info) -> r.Sections.is_write) ctx.refs
  @ List.concat_map
      (fun site ->
        match site.stmt.Ast.kind with
        | Ast.Call (callee, actuals) when Dynamic_decomp.as_remap site.stmt = None ->
          call_writes ctx ~loops:site.encl ~cls:site.cls site.stmt callee actuals
        | _ -> [])
      sites

(* What the statement of [site] needs under the loop partitions [part]:
   its reads' messages, then at a call none of whose reads falls back
   the callee's pending ones.  It reads [part] at the site's loops only,
   and [ctx.proc_constraint], which [detect_constraint] sets between the
   partition and communication passes: with both in the key, legality's
   trials and [comm_pass] share one evaluation per key. *)
let messages ctx ~part site : outcome list =
  let s = site.stmt in
  let evaluate () =
    let reads =
      List.filter_map
        (fun r -> process_read ctx ~part r site.cls site.nest)
        (Hashtbl.find_all ctx.reads s.Ast.sid)
    in
    match s.Ast.kind with
    | Ast.Call (callee, actuals)
      when Dynamic_decomp.as_remap s = None && not (List.mem Fallback reads) ->
      reads @ process_call_pendings ctx ~part site.nest s.Ast.sid callee actuals
    | _ -> reads
  in
  match s.Ast.kind with
  | Ast.Do _ -> []
  | _ -> (
    let k =
      { mk_proc = ctx.pname; mk_sid = s.Ast.sid; mk_constraint = ctx.proc_constraint;
        mk_parts = List.map (fun ((l : Ast.stmt), _) -> part l.Ast.sid) site.nest }
    in
    let seen = Option.value (Hashtbl.find_opt ctx.memo s.Ast.sid) ~default:[] in
    let same (k', _) =
      k'.mk_constraint == k.mk_constraint && List.for_all2 ( == ) k'.mk_parts k.mk_parts
    in
    match List.find_opt same seen with
    | Some (k, out) ->
      ctx.st.msgs.reused <- k :: ctx.st.msgs.reused;
      out
    | None ->
      let out = evaluate () in
      ctx.st.msgs.evaluated <- k :: ctx.st.msgs.evaluated;
      Hashtbl.replace ctx.memo s.Ast.sid ((k, out) :: seen);
      out)

(* May an owner guard not skip [s]: it prints or remaps, itself or below. *)
let must_reach ctx (s : Ast.stmt) =
  match s.Ast.kind with
  | Ast.Print _ | Ast.Distribute _ -> true
  | Ast.Call (callee, _) ->
    Dynamic_decomp.as_remap s <> None || List.mem callee ctx.st.must_reach
  | _ -> false

let expr_vars acc e =
  let out = ref acc in
  Ast.iter_exprs_expr (function Ast.Var v -> out := SS.add v !out | _ -> ()) e;
  !out

(* The scalars [s] may assign: a store, a DO index, or a call's Gmod
   scalars through its bindings, COMMON included. *)
let scalar_defs ctx (s : Ast.stmt) : SS.t =
  match s.Ast.kind with
  | Ast.Assign (Ast.Var x, _) -> SS.singleton x
  | Ast.Do d -> SS.singleton d.Ast.var
  | Ast.Call (callee, actuals) when Dynamic_decomp.as_remap s = None ->
    let gmod = Side_effects.gmod ctx.st.effects callee in
    List.fold_left
      (fun acc (f, a) ->
        match a with
        | Ast.Var v when Side_effects.S.mem f gmod && not (Symtab.is_array ctx.symtab v) ->
          SS.add v acc
        | _ -> acc)
      SS.empty (Acg.bindings ctx.st.acg callee actuals)
  | _ -> SS.empty

module Live = Dataflow.Make (struct
  type t = SS.t

  let bottom = SS.empty
  let join = SS.union
  let equal = SS.equal
end)

(* Scalar liveness over the procedure's CFG, with every formal and
   COMMON scalar live at exit.  By loop sid: the scalars live where the
   loop header is left, into its body or past it, and those live past
   it alone. *)
let live_at_loops ctx (body : Ast.stmt list) : int -> SS.t * SS.t =
  let uses (s : Ast.stmt) =
    match s.Ast.kind with
    | Ast.Assign (Ast.Var _, rhs) -> expr_vars SS.empty rhs
    | Ast.Call (callee, actuals) when Dynamic_decomp.as_remap s = None ->
      let gref = Side_effects.gref ctx.st.effects callee in
      List.fold_left
        (fun acc (f, a) ->
          match a with Ast.Var _ when not (Side_effects.S.mem f gref) -> acc | a -> expr_vars acc a)
        SS.empty (Acg.bindings ctx.st.acg callee actuals)
    | Ast.Call _ -> SS.empty
    | _ ->
      let acc = ref SS.empty in
      Ast.iter_exprs_stmt (fun e -> acc := expr_vars !acc e) s;
      !acc
  in
  let cfg = Cfg.build body in
  (* each node's (kill, uses), computed once; a call's definitions are
     only possible: they kill nothing *)
  let facts =
    Array.init (Cfg.length cfg) (fun i ->
      match Cfg.node cfg i with
      | Cfg.Entry | Cfg.Exit -> (SS.empty, SS.empty)
      | Cfg.Stmt s ->
        ((match s.Ast.kind with Ast.Call _ -> SS.empty | _ -> scalar_defs ctx s), uses s))
  in
  let transfer i _ live =
    let kill, gen = facts.(i) in
    SS.fold SS.add gen (SS.fold SS.remove kill live)
  in
  let scalars =
    List.filter
      (fun x -> match Symtab.find ctx.symtab x with Some (Symtab.Scalar _) -> true | _ -> false)
      ctx.interface
  in
  let live = Live.solve ~direction:Dataflow.Backward ~init:(SS.of_list scalars) ~transfer cfg in
  Live.count ctx.st.flow live;
  fun lsid ->
    match Cfg.node_of_sid cfg lsid with
    | Some h ->
      let into_body =
        match Cfg.node cfg h with
        | Cfg.Stmt { Ast.kind = Ast.Do { Ast.body = first :: _; _ }; _ } ->
          Cfg.node_of_sid cfg first.Ast.sid
        | _ -> Some h
      in
      let past =
        List.fold_left
          (fun acc n -> if Some n = into_body then acc else SS.union acc live.Live.output.(n))
          SS.empty (Cfg.succs cfg h)
      in
      (live.Live.input.(h), past)
    | None -> (SS.empty, SS.empty)

type scope = Loop_of of wclass * partition | Whole_body

(* The one partition rule, the partitioning twin of [place].  A scope is
   a loop's body, partitioned by the loop ([Loop_of] its first own
   candidate and the partition it gives), or a whole subroutine body
   guarded by one owner.  Every effect in it must be partitioned that
   way: by the same loop with the same layout, dimension and shift, or
   by a single owner.  Scalar stores, headers and alignments are no
   effect, but no scalar a loop body assigns may be upward-exposed in it
   or live at its exit, and every message the partition needs must
   leave the loop.  An owner guard may not skip a PRINT or a remap,
   itself or below. *)
let legal ctx ~live (scope : scope) (sites : site list) =
  let fits site =
    (not (must_reach ctx site.stmt))
    &&
    match (site.cls, site.stmt.Ast.kind, scope) with
    | W_by_loop b, _, Loop_of (W_by_loop k, _) ->
      b.wl_lsid = k.wl_lsid && b.wl_shift = k.wl_shift && b.wl_dim = k.wl_dim
      && Layout.equal b.wl_layout k.wl_layout
    | W_owner _, _, Whole_body -> true
    | W_replicated, (Ast.Assign (Ast.Var _, _) | Ast.Align _ | Ast.Distribute _ | Ast.Do _ | Ast.If _), _
      ->
      true
    | W_replicated, (Ast.Assign _ | Ast.Return | Ast.Call _), Whole_body -> true
    | _ -> false
  in
  List.for_all fits sites
  &&
  match scope with
  | Loop_of (W_by_loop k, p) ->
    let assigned = List.fold_left (fun acc site -> SS.union acc (scalar_defs ctx site.stmt)) SS.empty sites in
    let part lsid = if lsid = k.wl_lsid then p else Unpart in
    SS.disjoint assigned (fst (live k.wl_lsid))
    && not (List.exists (fun site -> List.mem Fallback (messages ctx ~part site)) sites)
  | Loop_of _ -> false
  | Whole_body -> ctx.pname <> ctx.st.acg.Acg.main

let decide_partition ctx ~live sites (l : Sections.loop_ctx) : partition =
  let inside =
    List.filter
      (fun site -> List.exists (fun (o : Sections.loop_ctx) -> o.Sections.lsid = l.Sections.lsid) site.encl)
      sites
  in
  let own = function W_by_loop b as c when b.wl_lsid = l.Sections.lsid -> Some c | _ -> None in
  let candidate = function
    | W_by_loop first -> (
      match triplet_of_loop l with
      | Some range ->
        let fam =
          Layout.partition first.wl_layout ~nprocs:ctx.st.opts.Options.nprocs
            ~shift:first.wl_shift range
        in
        if not (Fit.fits fam) then Unpart
        else
          Part_closed
            { fam;
              p_guard_info =
                { g_array = first.wl_array; g_dim = first.wl_dim; g_layout = first.wl_layout } }
      | None -> (
        (* run-time loop bounds: symbolic partitioning for block/cyclic,
           loop step 1 or -1 only *)
        match first.wl_layout.Layout.dist with
        | (Layout.Block _ | Layout.Cyclic) when abs l.Sections.lstep = 1 ->
          Part_symbolic { layout = first.wl_layout; dim = first.wl_dim; shift = first.wl_shift }
        | _ -> Unpart))
    | _ -> Unpart
  in
  (* each processor leaves its part of a partitioned loop with its own
     index: an index live past the loop keeps it replicated *)
  match List.find_map (fun site -> own site.cls) inside with
  | Some key when not (SS.mem l.Sections.lvar (snd (live l.Sections.lsid))) -> (
    match candidate key with
    | Unpart -> Unpart
    | p -> if legal ctx ~live (Loop_of (key, p)) inside then p else Unpart)
  | _ -> Unpart

(* --- Procedure-level constraint detection ------------------------------ *)

(* The whole-procedure owner constraint: a legal owner-guarded body
   whose every distributed write (or, with none, every distributed read)
   touches a single owner indexed by the same formal-affine expression. *)
let detect_constraint ctx ~live sites : Exports.constraint_ =
  let owners =
    List.filter_map
      (fun site ->
        match site.cls with
        | W_owner { wo_array; wo_dim; wo_index; _ } ->
          Some (Option.map (fun fa -> (wo_array, wo_dim, fa)) (formal_affine ctx wo_index))
        | _ -> None)
      sites
  in
  (* each distributed read's single owner, when its index is
     loop-invariant and exportable *)
  let reads =
    List.filter_map
      (fun (r : Sections.ref_info) ->
        if r.Sections.is_write then None
        else
          Option.map
            (fun (dim, _) ->
              match List.nth r.Sections.subs dim with
              | Some a when loop_free r.Sections.loops a ->
                Option.map
                  (fun fa -> (r.Sections.array, dim, fa))
                  (formal_affine ctx (Affine.to_expr a))
              | _ -> None)
            (dist_info ctx r.Sections.sid r.Sections.array))
      ctx.refs
  in
  let merge = function
    | Some (a0, d0, i0) :: rest
      when List.for_all
             (function
               | Some (a, d, i) -> String.equal a a0 && d = d0 && Affine.equal i i0
               | None -> false)
             rest ->
      Some (Exports.C_owner { co_array = a0; co_dim = d0; co_index = i0 })
    | _ -> None
  in
  let constraint_ =
    if not (legal ctx ~live Whole_body sites) then None
    else
      match owners with
      | [] ->
        (* no distributed writes: constrain by the reads, requiring them
           to be uniform (a procedure that must run on the data's owner) *)
        merge reads
      | _ ->
        (* writes uniform; reads must be uniform-or-broadcastable *)
        if List.for_all Option.is_some reads then merge owners else None
  in
  Option.value constraint_ ~default:Exports.C_none

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
                 inherits ctx x
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
        | Ast.Call (callee, actuals) when interproc && Dynamic_decomp.as_remap s = None ->
          let ex = export_of ctx.st callee in
          let b = binding_map ctx callee actuals in
          let translate lst =
            List.filter_map
              (fun (f, d) ->
                Option.map
                  (fun v ->
                    Dynamic_decomp.remap_stmt ctx.st.pseudo_sids
                      { Dynamic_decomp.rm_array = v; rm_decomp = d; rm_move = true })
                  (bound_array ctx b f))
              lst
          in
          translate ex.Exports.ex_before @ [ s ] @ translate ex.Exports.ex_after
        | _ -> [ s ])
      stmts
  in
  let instrumented = walk body in
  (* non-interprocedural strategies restore inherited decompositions of
     formals at procedure exit *)
  if (not interproc) && dyn.dyn_local_sids <> [] then begin
    let formals_distributed =
      List.concat_map
        (fun (s : Ast.stmt) ->
          if List.mem s.Ast.sid dyn.dyn_local_sids then
            List.filter (fun (x, _) -> inherits ctx x) (distribute_targets ctx s)
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

let partition_pass ctx ~live sites =
  List.iter
    (fun site ->
      match site.stmt.Ast.kind with
      | Ast.Do d ->
        let s = site.stmt in
        let decision = decide_partition ctx ~live sites (loop_ctx_of ctx s d) in
        ctx.st.decisions <-
          { d_proc = ctx.pname; d_sid = s.Ast.sid; d_var = d.var; d_part = decision }
          :: ctx.st.decisions;
        Hashtbl.replace ctx.partitions s.Ast.sid decision
      | _ -> ())
    sites

(* Every statement's messages under the decided partitions: the
   partition rule already kept each partitioned loop free of fallbacks,
   and where its candidate was kept the messages are the ones it
   computed. *)
let comm_pass ctx sites =
  let pending = ref [] in
  List.iter
    (fun site ->
      let out = messages ctx ~part:(partition_of ctx) site in
      if List.mem Fallback out then ctx.fallbacks <- site.stmt.Ast.sid :: ctx.fallbacks;
      List.iter
        (function
          | Fallback -> ()
          | Place (at, rq) -> Hashtbl.add ctx.placements at rq
          | Export p -> pending := p :: !pending)
        out)
    sites;
  ctx.pending_out <- ctx.pending_out @ List.rev !pending

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

(* Requests that move the same sections of the same array. *)
let same_request a b =
  match (a, b) with
  | Rq_shift x, Rq_shift y ->
    String.equal x.rs_array y.rs_array && Layout.equal x.rs_layout y.rs_layout
    && x.rs_dim = y.rs_dim && x.rs_other = y.rs_other
    && Lanes.equal x.rs_need y.rs_need
  | Rq_bcast x, Rq_bcast y ->
    String.equal x.rb_array y.rb_array && Layout.equal x.rb_layout y.rb_layout
    && x.rb_dim = y.rb_dim && x.rb_index = y.rb_index && x.rb_other = y.rb_other
  | _ -> false

let emit_request ctx ~loc (rq : request) : Node.nstmt list =
  let nprocs = ctx.st.opts.Options.nprocs in
  match rq with
  | Rq_shift { rs_array; rs_layout; rs_dim; rs_need; rs_other } ->
    Comm.emit_section_comm_multi ~loc ~nprocs ~tag:(fresh ctx.st) ~layout:rs_layout ~dim:rs_dim
      ~parts:[ (rs_array, rs_need, rs_other) ] ()
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
  let deduped =
    Listx.dedup ~equal:same_request (List.rev (Hashtbl.find_all ctx.placements sid))
  in
  if not ctx.st.opts.Options.aggregate_messages then
    List.concat_map (emit_request ctx ~loc) deduped
  else begin
    (* aggregation (paper Fig. 11): shift transfers over the same layout
       and dimension at one placement share one message per processor
       pair *)
    let groups =
      Listx.group_by
        ~key:(function
          | Rq_shift { rs_layout; rs_dim; _ } -> Some (rs_layout, rs_dim)
          | Rq_bcast _ -> None)
        ~equal_key:(Option.equal (fun (l, d) (l', d') -> Layout.equal l l' && d = d'))
        deduped
    in
    List.concat_map
      (fun (key, members) ->
        match key with
        | Some (layout, dim) ->
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
        | _ -> List.concat_map (emit_request ctx ~loc) members)
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

(* Scalar-result broadcasts for a guarded call. *)
let call_scalar_bcasts ctx ~loc callee actuals root : Node.nstmt list =
  let ex = export_of ctx.st callee in
  List.filter_map
    (fun (f, a) ->
      match a with
      | Ast.Var v
        when Exports.SS.mem f ex.Exports.ex_mod_scalars && not (Symtab.is_array ctx.symtab v) ->
        Some (Comm.emit_bcast_scalar ~loc ~site:(fresh ctx.st) ~root v)
      | _ -> None)
    (Acg.bindings ctx.st.acg callee actuals)

(* The owner that must run a statement alone, or None when every
   processor runs it: replicated work, an iteration of a partitioned
   loop, or anything inside a procedure that already runs on one owner. *)
let sole_owner ctx = function
  | W_owner { wo_index; wo_layout; _ } when not (in_c_owner_mode ctx) ->
    Some (wo_layout, wo_index)
  | W_by_loop b when (match partition_of ctx b.wl_lsid with Unpart -> true | _ -> false) ->
    Some (b.wl_layout, b.wl_index)
  | _ -> None

let rec emit_block ctx (stmts : Ast.stmt list) : Node.nstmt list =
  List.concat_map (emit_stmt ctx) stmts

and emit_stmt ctx (s : Ast.stmt) : Node.nstmt list =
  let loc = s.Ast.loc in
  let pre = emit_placed ctx ~loc s.Ast.sid in
  let body =
    match Dynamic_decomp.as_remap s with
    | Some r -> emit_remap ctx ~loc r
    | None ->
      if List.mem s.Ast.sid ctx.fallbacks then
        Runtime_res.compile_stmt (runtime_ctx ctx s.Ast.sid) s
      else (
        match s.Ast.kind with
        | Ast.Assign (lhs, rhs) -> (
          let c = Hashtbl.find ctx.classes s.Ast.sid in
          match (c, sole_owner ctx c) with
          | W_fallback, _ -> Runtime_res.compile_stmt (runtime_ctx ctx s.Ast.sid) s
          | _, Some (layout, index) ->
            [ Node.N_if
                { cond = Comm.owner_guard ~nprocs:ctx.st.opts.Options.nprocs layout index;
                  then_ = [ Node.N_assign (lhs, rhs) ];
                  else_ = [];
                  loc } ]
          | _, None -> [ Node.N_assign (lhs, rhs) ])
        | Ast.Do d -> emit_do ctx s d
        | Ast.If i ->
          [ Node.N_if
              { cond = i.Ast.cond;
                then_ = emit_block ctx i.Ast.then_;
                else_ = emit_block ctx i.Ast.else_;
                loc } ]
        | Ast.Call (callee, actuals) -> (
          let c = Hashtbl.find ctx.classes s.Ast.sid in
          match (c, sole_owner ctx c) with
          | W_fallback, _ ->
            Diag.error "cannot instantiate the computation partition for call to %s in %s"
              callee ctx.pname
          | _, Some (layout, index) ->
            (* every processor reaches the call: the owner makes it and
               broadcasts the callee's scalar results *)
            let root = Comm.owner_expr ~nprocs:ctx.st.opts.Options.nprocs layout index in
            Node.N_if
              { cond = Ast.Bin (Ast.Eq, myp, root);
                then_ = [ Node.N_call (callee, actuals) ];
                else_ = [];
                loc }
            :: call_scalar_bcasts ctx ~loc callee actuals root
          | _, None -> [ Node.N_call (callee, actuals) ])
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

and emit_do ctx (s : Ast.stmt) (d : Ast.do_stmt) : Node.nstmt list =
  let inner = emit_block ctx d.Ast.body in
  match partition_of ctx s.Ast.sid with
  | Unpart -> [ Node.N_do { var = d.Ast.var; lo = d.Ast.lo; hi = d.Ast.hi;
                            step = d.Ast.step; body = inner } ]
  | Part_closed { fam; _ } -> (
    match Fit.fit fam with
    | Some { Fit.f_lo; f_hi; f_step; f_guard } ->
      (* a descending loop runs its processor's triplet from the top *)
      let descending = (loop_ctx_of ctx s d).Sections.lstep < 0 in
      let loop =
        if descending then
          let step = match f_step with Ast.Int_const k -> int_e (-k) | e -> Ast.Un (Ast.Neg, e) in
          Node.N_do { var = d.Ast.var; lo = f_hi; hi = f_lo; step = Some step; body = inner }
        else
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
    (* a descending loop (step -1) starts at the top of p's iterations *)
    let descending = (loop_ctx_of ctx s d).Sections.lstep < 0 in
    let loop lo hi step = [ Node.N_do { var = d.Ast.var; lo; hi; step; body = inner } ] in
    match layout.Layout.dist with
    | Layout.Block b ->
      let _, dhi = List.nth layout.Layout.bounds dim in
      (* p's block [dlo + p*b, min(dhi, dlo + (p+1)*b - 1)], shifted *)
      let full = ((dhi - dlo + 1) / b) - 1 in
      let lane = Lanes.saff ~const:Fun.id in
      let los = Fit.expr_of_lanes [ (0, nprocs - 1, lane b (dlo - shift)) ] in
      let his =
        Fit.expr_of_lanes
          (Lanes.norm ~const:Fun.id ~merge:( = )
             [ (0, min full (nprocs - 1), lane b (dlo + b - 1 - shift));
               (max 0 (full + 1), nprocs - 1, Lanes.Sconst (dhi - shift)) ])
      in
      if descending then
        loop (Ast.Funcall ("min", [ d.Ast.lo; his ])) (Ast.Funcall ("max", [ d.Ast.hi; los ]))
          (Some (int_e (-1)))
      else loop (Ast.Funcall ("max", [ d.Ast.lo; los ])) (Ast.Funcall ("min", [ d.Ast.hi; his ])) None
    | Layout.Cyclic ->
      (* the first iteration from lo owned by my$p: lo + mod(mod(my$p +
         (dlo - shift) - lo, P) + P, P) counting up, lo - mod(mod(lo -
         (my$p + dlo - shift), P) + P, P) counting down *)
      let p_e = int_e nprocs in
      let first base = Ast.Funcall ("mod", [ Ast.Bin (Ast.Add, Ast.Funcall ("mod", [ base; p_e ]), p_e); p_e ]) in
      let mine = Ast.Bin (Ast.Add, myp, int_e (dlo - shift)) in
      if descending then
        loop (Ast.Bin (Ast.Sub, d.Ast.lo, first (Ast.Bin (Ast.Sub, d.Ast.lo, mine)))) d.Ast.hi
          (Some (int_e (-nprocs)))
      else loop (Ast.Bin (Ast.Add, d.Ast.lo, first (Ast.Bin (Ast.Sub, mine, d.Ast.lo)))) d.Ast.hi (Some p_e)
    | Layout.Block_cyclic _ | Layout.Replicated ->
      Diag.internal ~pass:"codegen" "unsupported distribution in a symbolic partition")

(* --- Procedure compilation ---------------------------------------------- *)

let new_ctx st ~override (cu : Sema.checked_unit) : proc_ctx =
  let u = cu.Sema.unit_ in
  { st; cu; pname = u.Ast.uname; symtab = cu.Sema.symtab;
    interface = u.Ast.formals @ List.map fst (Symtab.commons cu.Sema.symtab);
    refs = []; writes = []; override; reads = Hashtbl.create 16; dists = Hashtbl.create 16;
    loop_ctxs = Hashtbl.create 8; classes = Hashtbl.create 16; partitions = Hashtbl.create 8;
    memo = Hashtbl.create 16; fallbacks = []; placements = Hashtbl.create 16; pending_out = [];
    proc_constraint = Exports.C_none; mod_scalars = SS.empty }

(* The decomposition formal [x] has on entry: its exported Before-remap,
   else the inherited one. *)
let entry_decomp ctx x =
  match SM.find_opt x ctx.override with Some d -> d | None -> inherited_decomp ctx x

(* The owner temporaries ([o$N]) a body assigns, in order of first
   assignment.  They hold owner$ results and are declared INTEGER. *)
let owner_temps (body : Node.nstmt list) =
  let seen = Hashtbl.create 8 and out = ref [] in
  let rec go = function
    | Node.N_assign (Ast.Var v, _)
      when String.starts_with ~prefix:"o$" v && not (Hashtbl.mem seen v) ->
      Hashtbl.add seen v ();
      out := v :: !out
    | Node.N_do { body; _ } -> List.iter go body
    | Node.N_if { then_; else_; _ } -> List.iter go then_; List.iter go else_
    | _ -> ()
  in
  List.iter go body;
  List.rev !out

(* The node procedure: formal arrays declared with [formal_decomp],
   every other array replicated, owner temporaries INTEGER, PARAMETER
   constants folded. *)
let node_proc ctx ~formal_decomp (body : Node.nstmt list) : Node.nproc =
  let formals = ctx.cu.Sema.unit_.Ast.formals in
  { Node.np_name = ctx.pname;
    np_formals = formals;
    np_arrays =
      List.map
        (fun (name, (info : Symtab.array_info)) ->
          let layout =
            if List.mem name formals then layout_of_decomp ctx name (formal_decomp name)
            else Layout.replicated info.Symtab.dims
          in
          { Node.ad_name = name; ad_elt = info.Symtab.elt; ad_layout = layout })
        (Symtab.arrays ctx.symtab);
    np_scalars =
      Symtab.fold ctx.symtab
        (fun name entry acc ->
          match entry with Symtab.Scalar ty -> (name, ty) :: acc | _ -> acc)
        []
      @ List.map (fun v -> (v, Ast.Integer)) (owner_temps body);
    np_body =
      fold_params ctx.symtab
        (Node.N_assign (Ast.Var "my$p", Ast.Funcall ("myproc", [])) :: body) }

let compile_proc (st : state) (cu : Sema.checked_unit) : Node.nproc =
  let u = cu.Sema.unit_ in
  let pname = u.Ast.uname in
  let symtab = cu.Sema.symtab in
  let interproc = st.opts.Options.strategy = Options.Interproc in
  (* dynamic decomposition analysis and remap materialization *)
  let dyn = analyze_dyn (new_ctx st ~override:SM.empty cu) u.Ast.body in
  let ctx = new_ctx st ~override:dyn.dyn_override cu in
  let body = materialize_remaps ctx dyn u.Ast.body in
  (* remap optimization (interprocedural strategy, caller-side); each
     call site's arrays are looked up once *)
  let touches = Hashtbl.create 8 in
  let call_touches callee args =
    memo touches (callee, args) (fun () ->
        Dynamic_decomp.SS.of_list
          (bound_arrays ctx callee args (Side_effects.appear st.effects callee)))
  in
  let value_killer callee args x =
    match List.find_opt (fun (_, a) -> a = Ast.Var x) (Acg.bindings st.acg callee args) with
    | Some (f, _) -> Exports.SS.mem f (export_of st callee).Exports.ex_value_kill
    | None -> false
  in
  let initial_decomps =
    List.fold_left
      (fun acc (name, _) ->
        Dynamic_decomp.DM.add name
          (if List.mem name u.Ast.formals then entry_decomp ctx name
           else Decomp.replicated (Symtab.rank symtab name))
          acc)
      Dynamic_decomp.DM.empty (Symtab.arrays symtab)
  in
  (* a subroutine's callers read its interface arrays in whatever
     decomposition it leaves them; nothing follows the main program *)
  let live_out =
    match u.Ast.ukind with
    | Ast.Main -> Dynamic_decomp.SS.empty
    | Ast.Subroutine ->
      Dynamic_decomp.SS.of_list (List.filter (Symtab.is_array symtab) ctx.interface)
  in
  let body =
    if interproc then
      Dynamic_decomp.optimize st.opts.Options.remap_level ~work:st.flow ~call_touches ~live_out
        ~initial:initial_decomps ~symtab ~value_killer body
    else body
  in
  let ctx = { ctx with refs = Sections.collect symtab body } in
  List.iter
    (fun (r : Sections.ref_info) ->
      if not r.Sections.is_write then Hashtbl.add ctx.reads r.Sections.sid r)
    (List.rev ctx.refs);
  Hashtbl.replace st.remapped pname
    (Side_effects.S.of_list
       (List.filter (fun x -> Symtab.is_array symtab x && remaps ctx x body) ctx.interface));
  (* computation partitioning, constraint detection, communication *)
  let sites = classify_body ctx body in
  let ctx = { ctx with writes = collect_writes ctx sites } in
  if List.exists (fun site -> must_reach ctx site.stmt) sites then
    st.must_reach <- pname :: st.must_reach;
  let live = live_at_loops ctx body in
  partition_pass ctx ~live sites;
  ctx.proc_constraint <- detect_constraint ctx ~live sites;
  comm_pass ctx sites;
  ctx.mod_scalars <-
    (let gmod = Side_effects.gmod st.effects pname in
     SS.of_list
       (List.filter
          (fun f ->
            Side_effects.S.mem f gmod
            && match Symtab.find symtab f with Some (Symtab.Scalar _) -> true | _ -> false)
          ctx.interface));
  (* emission *)
  let main_body = emit_block ctx body in
  let emitted =
    match (st.opts.Options.strategy, ctx.proc_constraint) with
    | Options.Immediate, Exports.C_owner { co_array; co_dim = _; co_index } ->
      (* self-guarded body; broadcasts hoisted outside the guard *)
      let layout = layout_of_decomp ctx co_array (entry_decomp ctx co_array) in
      let root =
        Comm.owner_expr ~nprocs:st.opts.Options.nprocs layout (Affine.to_expr co_index)
      in
      (* separate top-level broadcast statements (collectives must involve
         every processor) from the guarded computation *)
      let colls, rest =
        List.partition (function Node.N_bcast _ -> true | _ -> false) main_body
      in
      colls
      @ [ Node.N_if
            { cond = Ast.Bin (Ast.Eq, myp, root); then_ = rest; else_ = []; loc = Loc.none } ]
      (* every modified formal or COMMON scalar leaves the owner *)
      @ List.filter_map
          (fun f ->
            if SS.mem f ctx.mod_scalars then
              Some (Comm.emit_bcast_scalar ~site:(fresh st) ~root f)
            else None)
          ctx.interface
    | _ -> main_body
  in
  (* exports *)
  let exported names = List.fold_left (fun acc f -> Exports.SS.add f acc) Exports.SS.empty names in
  let arrays_where p = exported (List.filter (fun f -> Symtab.is_array symtab f && p f) ctx.interface) in
  let export =
    { Exports.ex_proc = pname;
      ex_constraint = (if interproc then ctx.proc_constraint else Exports.C_none);
      ex_comms = (if interproc then ctx.pending_out else []);
      ex_before = (if interproc then dyn.dyn_before else []);
      ex_after = (if interproc then dyn.dyn_after else []);
      ex_use =
        arrays_where (fun f ->
            (not (SM.mem f dyn.dyn_override))
            && Side_effects.S.mem f (Side_effects.appear st.effects pname));
      ex_kill = exported (List.map fst (SM.bindings dyn.dyn_override));
      ex_mod_scalars = exported (SS.elements ctx.mod_scalars);
      ex_value_kill =
        arrays_where (fun f ->
            Dynamic_decomp.first_touch_kills ~symtab ~value_killer f u.Ast.body) }
  in
  Hashtbl.replace st.exports pname export;
  node_proc ctx ~formal_decomp:(entry_decomp ctx) emitted

(* --- Run-time resolution strategy ---------------------------------------- *)

(* Tolerant inherited decomposition: with cloning disabled a formal may
   have several inherited decompositions; pick one for the (informational)
   declaration layout. *)
let inherited_decomp_any ctx (x : string) : Decomp.t =
  let fact = Reaching_decomps.reaching_of ctx.st.rd ctx.pname in
  match Option.map (fun r -> Decomp.Set.elements r.Decomp.decomps) (SM.find_opt x fact) with
  | Some (d :: _) -> d
  | _ -> Decomp.replicated (Symtab.rank ctx.symtab x)

let compile_proc_runtime_res (st : state) (cu : Sema.checked_unit) : Node.nproc =
  let ctx = new_ctx st ~override:SM.empty cu in
  let body = cu.Sema.unit_.Ast.body in
  let rec emit stmts =
    List.concat_map
      (fun (s : Ast.stmt) ->
        match Dynamic_decomp.as_remap s with
        | Some r -> emit_remap ctx ~loc:s.Ast.loc r
        | None -> (
          match s.Ast.kind with
          | Ast.Do d ->
            [ Node.N_do
                { var = d.Ast.var; lo = d.Ast.lo; hi = d.Ast.hi; step = d.Ast.step;
                  body = emit d.Ast.body } ]
          | Ast.If i ->
            Runtime_res.compile_stmt (runtime_ctx ctx s.Ast.sid)
              { s with kind = Ast.If { i with then_ = []; else_ = [] } }
            |> List.map (function
                 | Node.N_if { cond; loc; _ } ->
                   Node.N_if
                     { cond; then_ = emit i.Ast.then_; else_ = emit i.Ast.else_; loc }
                 | other -> other)
          | _ -> Runtime_res.compile_stmt (runtime_ctx ctx s.Ast.sid) s))
      stmts
  in
  node_proc ctx ~formal_decomp:(inherited_decomp_any ctx)
    (emit (materialize_remaps ctx (analyze_dyn ctx body) body))

(* --- Program compilation -------------------------------------------------- *)

type compiled = {
  program : Node.program;
  clone_result : Cloning.result;
  state : state;
}

let decisions c = List.rev c.state.decisions

(* One processor's set after another. *)
let pp_sets ppf (fam : Lanes.family) =
  List.iteri (fun p s -> Fmt.pf ppf "p%d:%a " p Iset.pp s) (Lanes.to_list fam)

let pp_decision ppf d =
  Fmt.pf ppf "do %s (s%d): " d.d_var d.d_sid;
  match d.d_part with
  | Unpart -> Fmt.string ppf "replicated (full bounds on every processor)"
  | Part_closed { fam; p_guard_info } ->
    Fmt.pf ppf "partitioned on %s dim %d: %a" p_guard_info.g_array
      (p_guard_info.g_dim + 1) pp_sets fam
  | Part_symbolic { layout; dim; shift } ->
    Fmt.pf ppf "partitioned symbolically on dim %d (%a, shift %d)" (dim + 1)
      Layout.pp layout shift

let compile_analyzed ~sink (opts : Options.t) (clone_result : Cloning.result) : compiled =
  let { Cloning.cp; acg; rd; effects; _ } = clone_result in
  (* Fortran D forbids dynamic decomposition of aliased variables
     (Section 6.4); reject such programs before generating code. *)
  Aliasing.check ~sink acg effects;
  let st =
    { opts; sink; acg; rd; effects; counter = 0; exports = Hashtbl.create 16;
      decisions = []; shifts = [];
      pseudo_sids = Dynamic_decomp.new_sids (); flow = Dataflow.new_work ();
      msgs = { evaluated = []; reused = [] };
      must_reach = []; remapped = Hashtbl.create 16 }
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
