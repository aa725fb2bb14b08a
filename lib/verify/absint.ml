(* Abstract interpreter over SPMD node programs: a single vectorized
   walk simulates all P processors at once over one shared environment
   (one compressed Absdom.t per scalar cell — uniform, affine-in-pid or
   run-length segments, never a dense P-vector), erasing computation
   and keeping communication.

   The walk produces:
   - a stream of Skeleton.events (sends, recvs, collectives), each
     covering a contiguous *interval* of processors whose communication
     differs only affinely in the pid, for the skeleton replay;
   - walk-time findings: collectives reached by only part of the
     ensemble (the static form of the scheduler's collective-mismatch
     deadlock), out-of-bounds or malformed sections, empty sends;
   - the active-processor mask threading: masks are Iset.t pid sets, a
     decidable branch on my$p splits the mask, RETURN clears it,
     collectives check it.

   Control flow the domain cannot decide is walked once as an
   *unverifiable region*: scalar updates become weak (joins), the
   region is reported (one Info per site), not matched, and its tags
   are excluded from deadlock and unmatched-send verdicts.  A branch
   that is unknown-but-uniform stays congruence-safe; only
   processor-divergent unknowns demote collective verification.

   Emission discipline: per-processor quantities at a communication
   statement (message endpoint, section bounds and steps) are chunked
   together by Absdom.align_many, and each chunk becomes ONE event
   spanning it, with affine forms in the pid.  A step that depends on
   the pid is cut where it crosses 1, so each event's section is valid
   on all of its pids or on none; the replay and the cost analyzer
   evaluate such a step per pid. *)

open Fd_support
open Fd_frontend
open Fd_machine

exception Truncated
exception Stuck of string

(* Raised when the caller's resource budget trips mid-walk; rendered as
   an Info "budget-exhausted" finding, mirroring [Truncated]. *)
exception Budget_out of string

type aobj = {
  a_name : string;
  a_bounds : (int * int) list;
  mutable a_layout : Layout.t;
}

type binding = Bscalar of Absdom.t ref | Barray of aobj

(* One activation of a resolved procedure: a binding per slot of its
   {!Frame} layout. *)
type frame = binding array

(* Compiled forms: an expression evaluates on a frame; a statement runs
   on a frame under a mask and returns the mask still live (act minus
   the processors that executed RETURN). *)
type expr = frame -> Absdom.t
type code = frame -> Iset.t -> Iset.t

(* A node procedure resolved once per walk (see [resolve]). *)
type rproc = {
  r_layout : Frame.t;
  r_fresh : unit -> frame;  (* a new activation, formals unbound *)
  r_formals : int list;  (* the slot of each formal, in order *)
  r_body : code list;
}

(* Resolution context: the procedure's slot of a name, and the arrays a
   receive may snapshot: each name's slot, then the COMMON array of that
   name, if any. *)
type scope = {
  sc_slot : string -> int;
  sc_kind : int -> Frame.kind;
  sc_visible : (string * int * binding option) list;
}

(* Call summaries ([walk_call]).  A binding of a call's context as it
   enters the callee or as the callee leaves it: a scalar's lanes, an
   array's name and layout. *)
type bstate = Kscalar of Absdom.t | Karray of string * Layout.t

(* A call's context: the callee, the active mask, each actual's and each
   COMMON binding's state, and for each of these bindings the index of
   the first one that is the same binding (its aliasing). *)
type context = {
  c_hash : int;
  c_name : string;
  c_act : Iset.t;
  c_in : bstate array;
  c_alias : int array;
}

module Calls = Hashtbl.Make (struct
  type t = context

  let hash c = c.c_hash

  let same_state a b =
    match (a, b) with
    | Kscalar x, Kscalar y -> Absdom.identical x y
    | Karray (x, l), Karray (y, l') -> String.equal x y && Layout.equal l l'
    | _ -> false

  let equal a b =
    a.c_hash = b.c_hash && String.equal a.c_name b.c_name && a.c_act = b.c_act
    && a.c_alias = b.c_alias
    && Array.for_all2 same_state a.c_in b.c_in
end)

(* What the first walk of a context did.  Its events and region sites are
   the prefix of the walk's (reversed) lists that ends at [s_*_from]:
   two pointers into lists the walk keeps anyway, never a copy. *)
type summary = {
  s_visits : int;
  s_first_id : int;  (* next_id when that walk began *)
  s_ids : int;  (* collective ids it took *)
  s_events : Skeleton.event list;
  s_events_from : Skeleton.event list;
  s_regions : Loc.t list;
  s_regions_from : Loc.t list;
  s_out : bstate array;  (* each context binding's state at its return *)
}

(* The statement visits a walk may make before it is truncated. *)
let fuel_budget = 1_000_000

(* A walk records at most this many summaries, a thousandth of its fuel,
   and walks every call afresh once it has.  The examples record at most
   200 (fig4, runtime resolution); a walk whose calls all differ in
   context, such as a loop that passes its index, would otherwise keep a
   summary and pay for a key on every call. *)
let max_summaries = fuel_budget / 1000

type w = {
  n : int;
  prog : Node.program;
  oracle : (Loc.t -> bool option) option;
      (* branch profile consulted before falling back to regions *)
  budget : Budget.state option;
  common : Frame.t;  (* the COMMON layout *)
  globals : binding array;  (* its bindings, shared by every frame *)
  procs : (string, rproc) Hashtbl.t;  (* callees resolved so far *)
  mutable fuel : int;
  mutable uncertain : int;  (* depth of unverifiable regions *)
  mutable buf : Skeleton.event list ref;  (* current emission buffer *)
  mutable next_id : int;  (* collective emission ids *)
  mutable findings : Finding.t list;
  fuzzy : (int, unit) Hashtbl.t;  (* tags whose matching is unverifiable *)
  send_stats : (Loc.t * int, int ref * int ref) Hashtbl.t;
      (* per (site, tag): nonempty, empty *)
  comm_memo : (string, bool) Hashtbl.t;
  finding_seen : (string * string * int * int, unit) Hashtbl.t;
  mutable comm_regions : Loc.t list;  (* reversed; see [result] *)
  calls : summary Calls.t;
}

type result = {
  events : Skeleton.event list;
  findings : Finding.t list;
  fuzzy_tags : (int, unit) Hashtbl.t;
  complete : bool;
      (* the event stream covers the whole program, so the skeleton
         replay's deadlock verdicts are meaningful *)
  visits : int;  (* statements visited, for the bench *)
  comm_regions : Loc.t list;
      (* the IF of each unverified region instance that sends, receives
         or runs a collective, in walk order; Loc.none for a symbolic
         loop region *)
}

(* One finding per (kind, site) — the walk revisits statements (loop
   unrolling), the report should not. *)
let addf w ?(loc = Loc.none) ?proc ?tag ?site sev kind msg =
  let key =
    (kind, loc.Loc.file, loc.Loc.line, Option.value ~default:(-1) site)
  in
  if not (Hashtbl.mem w.finding_seen key) then begin
    Hashtbl.replace w.finding_seen key ();
    w.findings <-
      Finding.make ~loc ?proc ?tag ?site sev kind msg :: w.findings
  end

let charge w tick =
  match w.budget with
  | Some b when not (tick b 1) ->
    raise
      (Budget_out (Option.value ~default:"budget exhausted" (Budget.exhausted b)))
  | _ -> ()

let emit w ev =
  charge w Budget.tick_event;
  w.buf := ev :: !(w.buf)

let burn w =
  w.fuel <- w.fuel - 1;
  if w.fuel <= 0 then raise Truncated;
  charge w Budget.tick_step

(* --- environment (the simulator's frames, {!Frame}) ------------------- *)

let zero : Ast.dtype -> Absdom.t = function
  | Ast.Integer -> Absdom.Uni (Absdom.Pint 0)
  | Ast.Real -> Absdom.Uni (Absdom.Preal 0.0)
  | Ast.Logical -> Absdom.Uni (Absdom.Pbool false)

(* A slot's binding in a new activation; a call rebinds the formals. *)
let fresh globals = function
  | Frame.Formal _ -> Bscalar (ref Absdom.unknown)
  | Frame.Common j -> globals.(j)
  | Frame.Local_scalar ty -> Bscalar (ref (zero ty))
  | Frame.Local_array { Node.ad_name; ad_layout; _ } ->
    Barray { a_name = ad_name; a_bounds = ad_layout.Layout.bounds; a_layout = ad_layout }

let cell_of (fr : frame) s name =
  match fr.(s) with
  | Bscalar r -> r
  | Barray _ -> raise (Stuck (Fmt.str "array %s used as a scalar" name))

let scalar_cell sc name =
  let s = sc.sc_slot name in
  fun fr -> cell_of fr s name

(* The type a scalar slot stores as, as a value of it; a formal's is its
   actual's, not known here. *)
let slot_zero w sc name =
  match sc.sc_kind (sc.sc_slot name) with
  | Frame.Local_scalar ty -> Some (zero ty)
  | Frame.Common j -> (
    match Frame.kind w.common j with Frame.Local_scalar ty -> Some (zero ty) | _ -> None)
  | Frame.Formal _ | Frame.Local_array _ -> None

let array_obj sc name =
  let s = sc.sc_slot name in
  fun (fr : frame) ->
    match fr.(s) with
    | Barray o -> o
    | Bscalar _ -> raise (Stuck (Fmt.str "scalar %s used as an array" name))

(* --- expressions ------------------------------------------------------ *)

let binop_of : Ast.binop -> Absdom.binop = function
  | Ast.Add -> Absdom.Add
  | Ast.Sub -> Absdom.Sub
  | Ast.Mul -> Absdom.Mul
  | Ast.Div -> Absdom.Div
  | Ast.Pow -> Absdom.Pow
  | Ast.Eq -> Absdom.Eq
  | Ast.Ne -> Absdom.Ne
  | Ast.Lt -> Absdom.Lt
  | Ast.Le -> Absdom.Le
  | Ast.Gt -> Absdom.Gt
  | Ast.Ge -> Absdom.Ge
  | Ast.And -> Absdom.And
  | Ast.Or -> Absdom.Or

let const v : expr = fun _ -> v

(* A tab$ table, built once; its entries are integer literals (Fit emits
   no other) and equal entries share one value. *)
let int_table consts =
  let ints = List.filter_map (function Ast.Int_const i -> Some i | _ -> None) consts in
  if List.compare_lengths ints consts <> 0 then None
  else
    let shared = Hashtbl.create 4 in
    let value i =
      match Hashtbl.find_opt shared i with
      | Some v -> v
      | None ->
        let v = Absdom.Uni (Absdom.Pint i) in
        Hashtbl.add shared i v;
        v
    in
    Some (Array.of_list (List.map value ints))

(* Compile [e] against [sc]; names resolve now, misuse raises [Stuck]
   when the expression is evaluated. *)
let rec eval w sc (e : Ast.expr) : expr =
  let n = w.n in
  match e with
  | Ast.Int_const i -> const (Absdom.Uni (Absdom.Pint i))
  | Ast.Real_const f -> const (Absdom.Uni (Absdom.Preal f))
  | Ast.Logical_const b -> const (Absdom.Uni (Absdom.Pbool b))
  | Ast.Var v -> (
    let s = sc.sc_slot v in
    fun fr ->
      match fr.(s) with
      | Bscalar r -> !r
      | Barray _ -> raise (Stuck (Fmt.str "whole array %s used as a value" v)))
  | Ast.Ref (name, _) ->
    (* the uniform-data assumption: distributed values are unknown but
       processor-consistent (DESIGN.md 6c) *)
    let obj = array_obj sc name in
    fun fr ->
      ignore (obj fr);
      Absdom.unknown
  | Ast.Bin (op, a, b) ->
    let op = binop_of op and a = eval w sc a and b = eval w sc b in
    fun fr -> Absdom.app2 ~n op (a fr) (b fr)
  | Ast.Un (Ast.Neg, a) -> app1 w sc Absdom.Neg a
  | Ast.Un (Ast.Not, a) -> app1 w sc Absdom.Not a
  | Ast.Funcall (name, args) -> intrinsic w sc name args

and app1 w sc op a =
  let n = w.n and a = eval w sc a in
  fun fr -> Absdom.app1 ~n op (a fr)

and intrinsic w sc name args : expr =
  let n = w.n in
  match (name, args) with
  | "myproc", [] -> const (Absdom.myproc ~n)
  | "nprocs", [] -> const (Absdom.Uni (Absdom.Pint n))
  | "tab$", sel :: consts -> (
    let sel = eval w sc sel in
    match int_table consts with
    | Some table -> fun fr -> Absdom.select ~n (sel fr) table
    | None -> fun _ -> raise (Stuck "tab$ entry not an integer literal"))
  | "owner$", Ast.Var arr :: subs -> (
    let obj = array_obj sc arr and subs = List.map (eval w sc) subs in
    fun fr ->
      let obj = obj fr in
      match obj.a_layout.Layout.dist_dim with
      | None -> Absdom.myproc ~n
      | Some d ->
        let idx = (List.nth subs d) fr in
        let owner i =
          try Absdom.Pint (Layout.owner_of obj.a_layout ~nprocs:n i)
          with _ -> Absdom.Punk
        in
        let per_run () =
          Absdom.of_segs ~n
            (List.concat_map
               (fun (l, u, s) ->
                 match s with
                 | Absdom.Sconst (Absdom.Pint i) ->
                   [ (l, u, Absdom.Sconst (owner i)) ]
                 | Absdom.Sconst _ -> [ (l, u, Absdom.Sconst Absdom.Punk) ]
                 | Absdom.Saff _ ->
                   List.init (u - l + 1) (fun k ->
                       let p = l + k in
                       let v =
                         match Absdom.seg_at s p with
                         | Absdom.Pint i -> owner i
                         | _ -> Absdom.Punk
                       in
                       (p, p, Absdom.Sconst v)))
               (Absdom.segs_of ~n idx))
        in
        (* a known uniform index: one owner for every processor *)
        match idx with
        | Absdom.Uni (Absdom.Pint i) -> (
          match owner i with Absdom.Punk -> per_run () | o -> Absdom.Uni o)
        | _ -> per_run ())
  | _ -> (
    let k = List.length args in
    match (Intrinsic.lookup name k, name, args) with
    | None, _, _ -> fun _ -> raise (Stuck (Fmt.str "unknown intrinsic %s/%d" name k))
    | Some _, "abs", [ a ] -> app1 w sc Absdom.Abs a
    | Some _, "float", [ a ] -> app1 w sc Absdom.ToReal a
    | Some _, "int", [ a ] -> app1 w sc Absdom.ToInt a
    | Some _, ("mod" | "max" | "min"), a :: rest ->
      let op = match name with "mod" -> Absdom.Mod | "max" -> Absdom.Max | _ -> Absdom.Min in
      let a = eval w sc a and rest = List.map (eval w sc) rest in
      fun fr -> List.fold_left (fun v b -> Absdom.app2 ~n op v (b fr)) (a fr) rest
    | Some row, _, _ ->
      let args = List.map (eval w sc) args in
      fun fr -> Absdom.app_pv ~n (Absdom.lift row.meaning) (List.map (fun a -> a fr) args))

(* --- syntactic helpers ------------------------------------------------ *)

let rec stmts_have_comm w stmts = List.exists (stmt_has_comm w) stmts

and stmt_has_comm w = function
  | Node.N_send _ | Node.N_recv _ | Node.N_bcast _ | Node.N_remap _ -> true
  | Node.N_do { body; _ } -> stmts_have_comm w body
  | Node.N_if { then_; else_; _ } ->
    stmts_have_comm w then_ || stmts_have_comm w else_
  | Node.N_call (name, _) -> (
    match Hashtbl.find_opt w.comm_memo name with
    | Some b -> b
    | None ->
      Hashtbl.replace w.comm_memo name false;
      (* recursion guard *)
      let b =
        match Node.find_proc w.prog name with
        | Some np -> stmts_have_comm w np.Node.np_body
        | None -> false
      in
      Hashtbl.replace w.comm_memo name b;
      b)
  | Node.N_assign _ | Node.N_print _ | Node.N_return -> false

(* Scalars a skipped statement list might write: assignment targets, DO
   variables, Var actuals of calls (byref), and COMMON scalars once any
   call is involved. *)
let assigned_scalars w stmts =
  let acc = ref [] in
  let commons () =
    List.iter (fun (v, _) -> acc := v :: !acc) w.prog.Node.n_common_scalars
  in
  let rec go s =
    match s with
    | Node.N_assign (Ast.Var v, _) -> acc := v :: !acc
    | Node.N_assign _ -> ()
    | Node.N_do { var; body; _ } ->
      acc := var :: !acc;
      List.iter go body
    | Node.N_if { then_; else_; _ } ->
      List.iter go then_;
      List.iter go else_
    | Node.N_call (_, args) ->
      List.iter
        (function Ast.Var v -> acc := v :: !acc | _ -> ())
        args;
      commons ()
    | _ -> ()
  in
  List.iter go stmts;
  List.sort_uniq compare !acc

let rec expr_divergent e =
  match e with
  | Ast.Var "my$p" -> true
  | Ast.Funcall (("myproc" | "owner$"), _) -> true
  | Ast.Var _ | Ast.Int_const _ | Ast.Real_const _ | Ast.Logical_const _ ->
    false
  | Ast.Ref (_, subs) -> List.exists expr_divergent subs
  | Ast.Bin (_, a, b) -> expr_divergent a || expr_divergent b
  | Ast.Un (_, a) -> expr_divergent a
  | Ast.Funcall (_, args) -> List.exists expr_divergent args

let rec stmts_mention_divergence stmts =
  List.exists
    (fun s ->
      match s with
      | Node.N_assign (a, b) -> expr_divergent a || expr_divergent b
      | Node.N_do { lo; hi; step; body; _ } ->
        expr_divergent lo || expr_divergent hi
        || (match step with Some e -> expr_divergent e | None -> false)
        || stmts_mention_divergence body
      | Node.N_if { cond; then_; else_; _ } ->
        expr_divergent cond
        || stmts_mention_divergence then_
        || stmts_mention_divergence else_
      | Node.N_call (_, args) -> List.exists expr_divergent args
      | _ -> false)
    stmts

(* --- active masks (pid sets) ------------------------------------------ *)

let all_active w act = Iset.count act = w.n
let any_active act = not (Iset.is_empty act)
let active_count act = Iset.count act
let missing_procs w act = Iset.to_list (Iset.complement ~lo:0 ~hi:(w.n - 1) act)

(* Pids in [act] where the (boolean) condition is true; the caller
   guarantees every active lane is decided. *)
let true_pids w ~act v =
  match Absdom.truth ~n:w.n ~act v with
  | Absdom.T_true -> act
  | Absdom.T_false -> Iset.empty
  | Absdom.T_split (t, _) -> t
  | Absdom.T_unknown_uniform | Absdom.T_divergent -> Iset.empty

(* --- assignment ------------------------------------------------------- *)

(* A scalar store converts as the simulator's does ({!Absdom.store}):
   to [into], the slot's type, or else lane by lane to the type the
   cell holds. *)
let do_assign w act ?into cell v =
  let v = Absdom.store ~n:w.n ~into:(Option.value into ~default:!cell) v in
  let blended = Absdom.blend ~n:w.n ~act !cell v in
  cell :=
    (if w.uncertain > 0 then Absdom.join ~n:w.n !cell blended else blended)

let havoc_scalars w fr act ~divergent slots =
  let upd =
    if divergent then Absdom.divergent_unknown ~n:w.n else Absdom.unknown
  in
  List.iter
    (fun s ->
      match fr.(s) with
      | Bscalar cell ->
        cell := Absdom.join ~n:w.n !cell (Absdom.blend ~n:w.n ~act !cell upd)
      | Barray _ -> ())
    slots

(* --- communication emission ------------------------------------------ *)

(* Sections are evaluated once into compressed per-processor values,
   then chunked into affine pid-intervals. *)
let compile_section w sc (section : Node.section) =
  List.map
    (fun (lo, hi, st) -> (eval w sc lo, eval w sc hi, eval w sc st))
    section

let eval_section fr section =
  List.map (fun (lo, hi, st) -> (lo fr, hi fr, st fr)) section

(* First pid in [cl, cu] whose instantiated triplet is non-empty and
   escapes the declared bounds, with that triplet.  The caller proved
   the step [sa*p + sb] at least 1 on the whole interval.  The affine
   path covers a constant step of 1 and equal-slope endpoints under a
   constant step (where the normalized upper bound stays affine); other
   shapes scan. *)
let oob_first cl cu (la, lb) (ha, hb) (sa, sb) (blo, bhi) : (int * Triplet.t) option
    =
  let mk p =
    Triplet.make ~lo:((la * p) + lb) ~hi:((ha * p) + hb) ~step:((sa * p) + sb)
  in
  if sa = 0 && (sb = 1 || la = ha) then begin
    if la = ha && hb < lb then None  (* empty on every pid *)
    else
      let ha', hb' =
        if sb = 1 then (ha, hb)
        else (la, lb + ((hb - lb) / sb * sb))
      in
      match Replay.halfline_le cl cu (la - ha) (lb - hb) with
      | None -> None  (* empty on every pid *)
      | Some (nl, nu) ->
        let lo_v = Replay.halfline_le nl nu la (lb - blo + 1) in
        let hi_v = Replay.halfline_le nl nu (-ha') (bhi + 1 - hb') in
        let cand =
          match (lo_v, hi_v) with
          | Some (a, _), Some (b, _) -> Some (min a b)
          | Some (a, _), None | None, Some (a, _) -> Some a
          | None, None -> None
        in
        Option.map (fun p -> (p, mk p)) cand
  end
  else begin
    let r = ref None in
    let p = ref cl in
    while !r = None && !p <= cu do
      let t = mk !p in
      if
        (not (Triplet.is_empty t))
        && (Triplet.lo t < blo || Triplet.hi t > bhi)
      then r := Some (!p, t);
      incr p
    done;
    !r
  end

let aff_of (a, b) = { Skeleton.a; b }

(* One part's section over [cl, cu], where each bound and step is one
   segment and no step crosses 1 ([step_cuts]): per dimension the
   affine (lo, hi, step) forms, or None when a form is not an integer,
   the rank is wrong or a step is below 1.  Findings go to [cands] as
   (first pid, part, dim, kind, message); [report] adds them in that
   order, the order a pid-by-pid walk meets them. *)
let part_section ~what ~cands ~pi cl cu (obj : aobj) dims =
  if List.length dims <> List.length obj.a_bounds then begin
    cands :=
      ( cl, pi, -1, "section-rank",
        Fmt.str "%s section of %s has %d dimensions, array has %d" what
          obj.a_name (List.length dims) (List.length obj.a_bounds) )
      :: !cands;
    None
  end
  else
    Listx.all_some
      (List.mapi
         (fun di ((slo, shi, sst), (blo, bhi)) ->
           match (Absdom.lin_of slo, Absdom.lin_of shi, Absdom.lin_of sst) with
           | Some lo, Some hi, Some ((sa, sb) as st) ->
             let s = (sa * cl) + sb in
             if s < 1 then begin
               cands :=
                 ( cl, pi, di, "bad-section-step",
                   Fmt.str "%s section of %s has step %d (must be positive)"
                     what obj.a_name s )
                 :: !cands;
               None
             end
             else begin
               (match oob_first cl cu lo hi st (blo, bhi) with
               | Some (p, t) ->
                 cands :=
                   ( p, pi, di, what ^ "-out-of-bounds",
                     Fmt.str "p%d %ss %s(%s) outside the declared bounds %d:%d"
                       p what obj.a_name (Triplet.to_string t) blo bhi )
                   :: !cands
               | None -> ());
               Some (aff_of lo, aff_of hi, aff_of st)
             end
           | _ -> None)
         (List.combine dims obj.a_bounds))

let report w ~loc cands =
  List.iter
    (fun (p, _, _, kind, msg) -> addf w ~loc ~proc:p Finding.Error kind msg)
    (List.sort compare cands)

(* The pids in (cl, cu] where some pid-dependent step crosses 1: cut
   there and every piece's steps are at least 1 on all of its pids or
   below 1 on all of them. *)
let step_cuts cl cu pdims =
  List.concat_map
    (fun (_, _, dims) ->
      List.concat_map
        (fun (_, _, sst) ->
          match Absdom.lin_of sst with
          | Some (sa, sb) when sa <> 0 -> (
            match Replay.halfline_le cl cu sa sb with
            | Some (l, u) -> List.filter (fun c -> c > cl && c <= cu) [ l; u + 1 ]
            | None -> [])
          | _ -> [])
        dims)
    pdims

let emit_send w fr act ~loc dest parts tag =
  let n = w.n in
  let vdest = dest fr in
  let vparts =
    List.map
      (fun (obj, array, section) -> (obj fr, array, eval_section fr section))
      parts
  in
  let nonempty, empty =
    match Hashtbl.find_opt w.send_stats (loc, tag) with
    | Some c -> c
    | None ->
      let c = (ref 0, ref 0) in
      Hashtbl.replace w.send_stats (loc, tag) c;
      c
  in
  (* one event over [cl, cu]: every quantity is one segment there *)
  let emit_piece cl cu dest_seg pdims =
    let cands = ref [] in
    let dest_a =
      match Absdom.lin_of dest_seg with
      | Some ab -> Some (aff_of ab)
      | None ->
        Hashtbl.replace w.fuzzy tag ();
        None
    in
    let parts_out =
      List.mapi
        (fun pi (obj, array, dims) ->
          {
            Skeleton.p_array = array;
            p_triplets = part_section ~what:"send" ~cands ~pi cl cu obj dims;
            p_layout = obj.a_layout;
          })
        pdims
    in
    report w ~loc !cands;
    (* dead-send accounting: provably-empty vs anything else *)
    let width = cu - cl + 1 in
    let pe =
      match parts_out with
      | [] -> Iset.empty
      | _ ->
        List.fold_left
          (fun acc sp ->
            let es =
              match sp.Skeleton.p_triplets with
              | None -> Iset.empty
              | Some tl ->
                List.fold_left
                  (fun acc (lo_a, hi_a, _) ->
                    match
                      Replay.halfline_le cl cu
                        (hi_a.Skeleton.a - lo_a.Skeleton.a)
                        (hi_a.Skeleton.b - lo_a.Skeleton.b + 1)
                    with
                    | Some (a, b) -> Iset.union acc (Iset.range a b)
                    | None -> acc)
                  Iset.empty tl
            in
            Iset.inter acc es)
          (Iset.range cl cu) parts_out
    in
    let pec = Iset.count pe in
    empty := !empty + pec;
    nonempty := !nonempty + (width - pec);
    emit w
      {
        Skeleton.e_plo = cl;
        e_phi = cu;
        e_loc = loc;
        e_kind = Skeleton.Ev_send { dest = dest_a; tag; parts = parts_out };
      }
  in
  let do_chunk cl cu (segs : Absdom.seg list) =
    let dest_seg, rest =
      match segs with
      | d :: r -> (d, r)
      | [] ->
        Diag.internal ~pass:"verify" "chunked emission with no destination segment"
    in
    (* slice the flattened segment list back into per-part dim triples *)
    let rec split3 vsec segs =
      match vsec with
      | [] -> ([], segs)
      | _ :: tl -> (
        match segs with
        | a :: b :: c :: r ->
          let dims, rest = split3 tl r in
          ((a, b, c) :: dims, rest)
        | _ ->
          Diag.internal ~pass:"verify" "segment list misaligned in chunked emission")
    in
    let pdims, remaining =
      List.fold_left
        (fun (acc, segs) (obj, array, vsec) ->
          let dims, rest = split3 vsec segs in
          ((obj, array, dims) :: acc, rest))
        ([], rest) vparts
    in
    assert (remaining = []);
    let pdims = List.rev pdims in
    let rec pieces l = function
      | c :: cs ->
        emit_piece l (c - 1) dest_seg pdims;
        pieces c cs
      | [] -> emit_piece l cu dest_seg pdims
    in
    pieces cl (List.sort_uniq compare (step_cuts cl cu pdims))
  in
  let vals =
    vdest
    :: List.concat_map
         (fun (_, _, vsec) ->
           List.concat_map (fun (a, b, c) -> [ a; b; c ]) vsec)
         vparts
  in
  let chunks = Absdom.align_many ~n vals in
  Iset.fold_intervals
    (fun () alo ahi ->
      List.iter
        (fun (cl, cu, segs) ->
          let l = max cl alo and u = min cu ahi in
          if l <= u then do_chunk l u segs)
        chunks)
    () act

(* Arrays in scope at a statement, under their LOCAL names (a formal
   aliases the caller's array but messages refer to the formal). *)
let emit_recv w (fr : frame) act ~loc src tag visible =
  let n = w.n in
  let vsrc = src fr in
  let snaps =
    List.filter_map
      (fun (name, s, common) ->
        match (fr.(s), common) with
        | Barray obj, _ | Bscalar _, Some (Barray obj) ->
          Some { Skeleton.ra_name = name; ra_layout = obj.a_layout }
        | Bscalar _, _ -> None)
      visible
  in
  Iset.fold_intervals
    (fun () alo ahi ->
      List.iter
        (fun (cl, cu, s) ->
          let src_a =
            match Absdom.lin_of s with
            | Some ab -> Some (aff_of ab)
            | None ->
              Hashtbl.replace w.fuzzy tag ();
              None
          in
          emit w
            {
              Skeleton.e_plo = cl;
              e_phi = cu;
              e_loc = loc;
              e_kind = Skeleton.Ev_recv { src = src_a; tag; arrays = snaps };
            })
        (Absdom.restrict ~n vsrc (alo, ahi)))
    () act

(* A collective reached by only part of the ensemble: the rest of the
   processors never join, which is the scheduler's deadlock-at-site.
   The event is NOT emitted (the skeleton would only cascade). *)
let collective_act_ok w act ~loc ~site ~label =
  if all_active w act then true
  else begin
    let sev = if w.uncertain > 0 then Finding.Warning else Finding.Error in
    let qualifier =
      if w.uncertain > 0 then
        " (under control flow the analysis could not fully resolve)"
      else ""
    in
    addf w ~loc ~site sev "collective-divergence"
      (Fmt.str
         "collective site %d (%s) is reached by only %d of %d processors \
          (missing: %s)%s — the ensemble deadlocks at this site"
         site label (active_count act) w.n
         (String.concat ", "
            (List.map (fun p -> Fmt.str "p%d" p) (missing_procs w act)))
         qualifier);
    false
  end

(* One event spanning the whole ensemble — collectives only reach the
   emitter when every processor participates. *)
let emit_coll w ~loc ~site ~label ~root payload =
  let id = w.next_id in
  w.next_id <- w.next_id + 1;
  emit w
    {
      Skeleton.e_plo = 0;
      e_phi = w.n - 1;
      e_loc = loc;
      e_kind = Skeleton.Ev_coll { id; site; label; root; payload };
    }

let do_bcast w fr act ~loc root payload site =
  let vroot = root fr in
  (* a root outside the ensemble is reported and then unresolved *)
  let root_id =
    match Absdom.uniform_int vroot with
    | Some r when r >= 0 && r < w.n -> Some r
    | Some r ->
      addf w ~loc ~site Finding.Error "bcast-root-out-of-range"
        (Fmt.str "broadcast root p%d at site %d is not one of p0..p%d" r site
           (w.n - 1));
      None
    | None ->
      if
        (not (Absdom.is_uniform vroot)) && not (Absdom.has_punk ~n:w.n vroot)
      then
        addf w ~loc ~site Finding.Error "bcast-root-divergence"
          "processors disagree on the broadcast root"
      else
        addf w ~loc ~site Finding.Info "unverified-collective"
          (Fmt.str "broadcast root at site %d could not be resolved statically"
             site);
      None
  in
  match payload with
  | `Scalar (name, cell) ->
    let cell = cell fr in
    (* after the broadcast every processor holds the root's value *)
    let v =
      match root_id with
      | Some r -> Absdom.Uni (Absdom.at !cell r)
      | None -> (
        match !cell with
        | Absdom.Uni _ as u -> u
        | Absdom.Runs _ -> Absdom.unknown)
    in
    cell := (if w.uncertain > 0 then Absdom.join ~n:w.n !cell v else v);
    if collective_act_ok w act ~loc ~site ~label:name then
      emit_coll w ~loc ~site ~label:name ~root:root_id (Skeleton.Cp_scalar name)
  | `Section (array, obj, section) ->
    let obj = obj fr in
    let triplets =
      match root_id with
      | Some r ->
        (* the send's section code over [r, r]; a uniform value holds
           at any root *)
        let seg = function
          | Absdom.Uni v -> Absdom.Sconst v
          | v -> (
            match Absdom.restrict ~n:w.n v (r, r) with
            | [ (_, _, s) ] -> s
            | _ -> Absdom.Sconst Absdom.Punk)
        in
        let cands = ref [] in
        let dims =
          List.map
            (fun (lo, hi, st) -> (seg lo, seg hi, seg st))
            (eval_section fr section)
        in
        let tl = part_section ~what:"broadcast" ~cands ~pi:0 r r obj dims in
        report w ~loc !cands;
        Option.map (List.map (fun t -> Skeleton.triplet_at t r)) tl
      | None -> None
    in
    if triplets = None && root_id <> None then
      addf w ~loc ~site Finding.Info "unverified-collective"
        (Fmt.str "broadcast payload %s at site %d could not be resolved \
                  statically" array site);
    if collective_act_ok w act ~loc ~site ~label:array then
      emit_coll w ~loc ~site ~label:array ~root:root_id
        (Skeleton.Cp_section
           { cs_array = array; cs_triplets = triplets; cs_layout = obj.a_layout })

let do_remap w act ~loc array obj new_layout move site =
  let old_layout = obj.a_layout in
  (* well-formedness of the target layout *)
  let ok = ref true in
  if new_layout.Layout.bounds <> obj.a_bounds then begin
    ok := false;
    addf w ~loc ~site Finding.Error "remap-malformed"
      (Fmt.str "remap of %s changes the declared bounds" array)
  end;
  (match new_layout.Layout.dist_dim with
  | Some d when d < 0 || d >= List.length obj.a_bounds ->
    ok := false;
    addf w ~loc ~site Finding.Error "remap-malformed"
      (Fmt.str "remap of %s distributes dimension %d of a rank-%d array"
         array d (List.length obj.a_bounds))
  | _ -> ());
  (match new_layout.Layout.dist with
  | Layout.Block b when b < 1 ->
    ok := false;
    addf w ~loc ~site Finding.Error "remap-malformed"
      (Fmt.str "remap of %s uses block size %d" array b)
  | Layout.Block_cyclic b when b < 1 ->
    ok := false;
    addf w ~loc ~site Finding.Error "remap-malformed"
      (Fmt.str "remap of %s uses block-cyclic size %d" array b)
  | _ -> ());
  if !ok then obj.a_layout <- new_layout;
  if collective_act_ok w act ~loc ~site ~label:array then
    emit_coll w ~loc ~site ~label:array ~root:None
      (Skeleton.Cp_remap
         { cr_array = array; cr_old = old_layout; cr_new = obj.a_layout;
           cr_move = move })

(* --- call summaries ----------------------------------------------------- *)

let state_of = function
  | Bscalar r -> Kscalar !r
  | Barray o -> Karray (o.a_name, o.a_layout)

let same_binding a b =
  match (a, b) with
  | Bscalar r, Bscalar r' -> r == r'
  | Barray o, Barray o' -> o == o'
  | _ -> false

(* [bs] holds the callee's formal bindings, then the COMMON ones. *)
let context name act bs =
  let c_in = Array.map state_of bs in
  let c_alias =
    Array.map
      (fun b ->
        let rec first j = if same_binding bs.(j) b then j else first (j + 1) in
        first 0)
      bs
  in
  let mix h x = (h * 65599) + x in
  let c_hash =
    Array.fold_left
      (fun h k -> mix h (Hashtbl.hash k))
      (Array.fold_left mix (mix (Hashtbl.hash name) (Hashtbl.hash act)) c_alias)
      c_in
  in
  { c_hash; c_name = name; c_act = act; c_in; c_alias }

(* The elements of [l] before [stop] (a tail of it), each through [f],
   in front of [tail]. *)
let[@tail_mod_cons] rec prefix f stop tail l =
  if l == stop then tail
  else match l with x :: rest -> f x :: prefix f stop tail rest | [] -> tail

(* Replay a context's first walk: its events, collective ids shifted to
   follow this walk's, its region sites, its visits and the state it left
   in each context binding.  Not replayed, since a repeat adds nothing:
   findings ([addf] keeps one per kind and site, all of them added by the
   first walk); fuzzy tags (a set); [send_stats], of which the empty-send
   verdict reads only whether each counter is zero, and the first walk
   already bumped every counter a repeat would. *)
let replay w s bs =
  let d = w.next_id - s.s_first_id in
  let shift (ev : Skeleton.event) =
    match ev.Skeleton.e_kind with
    | Skeleton.Ev_coll c when d <> 0 ->
      { ev with Skeleton.e_kind = Skeleton.Ev_coll { c with id = c.id + d } }
    | _ -> ev
  in
  w.buf := prefix shift s.s_events_from !(w.buf) s.s_events;
  w.next_id <- w.next_id + s.s_ids;
  w.comm_regions <- prefix Fun.id s.s_regions_from w.comm_regions s.s_regions;
  w.fuel <- w.fuel - s.s_visits;
  Array.iteri
    (fun i b ->
      match (b, s.s_out.(i)) with
      | Bscalar r, Kscalar v -> r := v
      | Barray o, Karray (_, l) -> o.a_layout <- l
      | _ -> ())  (* the key matched each binding's kind *)
    bs

(* --- statements ------------------------------------------------------- *)

(* [walk_seq w fr act body] returns the mask of processors still live
   (act minus those that executed RETURN). *)
let rec walk_seq w fr (act : Iset.t) (body : code list) : Iset.t =
  match body with
  | c :: rest when any_active act ->
    burn w;
    walk_seq w fr (c fr act) rest
  | _ -> act

(* A [Var] actual passes its binding, any other actual a fresh cell.
   Outside regions and budgets, and until [max_summaries] contexts are
   recorded, a callee is walked once per context (the callee, the mask,
   its bindings' states and aliasing) and a repeat replays that walk,
   unless the replay's visits would reach the fuel limit, where the walk
   stops at the very visit the plain walk would.
   In a region a call emits into the region's buffer and updates weakly,
   so its summary would replay the wrong effect at the top level; a
   budget ticks per step and per event, which a replay skips. *)
and walk_call w fr act name callee args =
  let rp =
    match callee with
    | Some rp -> rp
    | None -> raise (Stuck (Fmt.str "call to unknown node procedure %s" name))
  in
  if List.length args <> List.length rp.r_formals then
    raise (Stuck (Fmt.str "node procedure %s arity mismatch" name));
  let frame = rp.r_fresh () in
  List.iter2
    (fun slot actual ->
      frame.(slot) <-
        (match actual with
        | `Ref s -> fr.(s)
        | `Value e -> Bscalar (ref (e fr))))
    rp.r_formals args;
  let walk () = ignore (walk_seq w frame act rp.r_body) in
  if w.uncertain > 0 || Option.is_some w.budget || Calls.length w.calls >= max_summaries
  then walk ()
  else
    let bs =
      Array.append (Array.of_list (List.map (Array.get frame) rp.r_formals)) w.globals
    in
    let ctx = context name act bs in
    match Calls.find_opt w.calls ctx with
    | Some s when w.fuel - s.s_visits > 0 -> replay w s bs
    | Some _ -> walk ()
    | None ->
      let fuel = w.fuel and first_id = w.next_id in
      let events = !(w.buf) and regions = w.comm_regions in
      walk ();
      Calls.add w.calls ctx
        { s_visits = fuel - w.fuel; s_first_id = first_id; s_ids = w.next_id - first_id;
          s_events = !(w.buf); s_events_from = events; s_regions = w.comm_regions;
          s_regions_from = regions; s_out = Array.map state_of bs }

and walk_if w fr act ~loc vc then_ else_ : Iset.t =
  match Absdom.truth ~n:w.n ~act vc with
  | Absdom.T_true -> walk_seq w fr act then_
  | Absdom.T_false -> walk_seq w fr act else_
  | Absdom.T_unknown_uniform -> (
    (* unknown but processor-uniform: both branches possible, all
       processors take the same one — collectives inside stay congruent.
       A branch oracle (sequential profile, cost analysis) can decide
       the instance; without one both branches become a region. *)
    match Option.bind w.oracle (fun f -> f loc) with
    | Some true -> walk_seq w fr act then_
    | Some false -> walk_seq w fr act else_
    | None ->
      walk_branches_as_regions w fr act ~loc ~divergent:false then_ else_;
      act)
  | Absdom.T_split (act_t, act_e) ->
    let live_t =
      if any_active act_t then walk_seq w fr act_t then_ else act_t
    in
    let live_e =
      if any_active act_e then walk_seq w fr act_e else_ else act_e
    in
    (* no branch RETURNed: the two sides partition [act] *)
    if live_t == act_t && live_e == act_e then act
    else Iset.union live_t live_e
  | Absdom.T_divergent ->
    (* processors genuinely disagree and we cannot tell which way:
       collective congruence inside is unverifiable *)
    walk_branches_as_regions w fr act ~loc ~divergent:true then_ else_;
    act

and walk_branches_as_regions w fr act ~loc ~divergent then_ else_ =
  let evs_t = walk_region w fr act then_ in
  let evs_e = walk_region w fr act else_ in
  finish_regions w ~if_loc:loc ~divergent (evs_t @ evs_e)

(* Walk [stmts] once with weak scalar updates, capturing its events. *)
and walk_region w fr act body : Skeleton.event list =
  let saved = w.buf in
  let buf = ref [] in
  w.buf <- buf;
  w.uncertain <- w.uncertain + 1;
  Fun.protect
    ~finally:(fun () ->
      w.uncertain <- w.uncertain - 1;
      w.buf <- saved)
    (fun () -> ignore (walk_seq w fr act body));
  List.rev !buf

(* Post-process a region's events (both branches): its p2p tags become
   unverifiable (excluded from deadlock and unmatched-send verdicts), a
   divergent region containing collectives is the "divergent-branch
   collective" warning, any data the region may have delivered is
   assumed received so later sends are not falsely flagged, and the
   site is reported once as an Info region.  The region's events are
   not matched: with no deliveries before it and its owner lanes
   joined, what a replay of them alone could report is not evidence.
   A region that communicates joins [comm_regions] under [if_loc]. *)
and finish_regions w ~if_loc ~divergent (all : Skeleton.event list) =
  if all <> [] then begin
    if
      List.exists
        (fun (ev : Skeleton.event) ->
          match ev.Skeleton.e_kind with
          | Skeleton.Ev_send _ | Skeleton.Ev_recv _ | Skeleton.Ev_coll _ -> true
          | Skeleton.Ev_assume _ -> false)
        all
    then w.comm_regions <- if_loc :: w.comm_regions;
    List.iter
      (fun (ev : Skeleton.event) ->
        match ev.Skeleton.e_kind with
        | Skeleton.Ev_send { tag; _ } | Skeleton.Ev_recv { tag; _ } ->
          Hashtbl.replace w.fuzzy tag ()
        | _ -> ())
      all;
    (* divergent-branch collectives: report every site, with both
       branches' locations *)
    if divergent then begin
      let sites = Hashtbl.create 4 in
      List.iter
        (fun (ev : Skeleton.event) ->
          match ev.Skeleton.e_kind with
          | Skeleton.Ev_coll { site; label; _ } ->
            if not (Hashtbl.mem sites site) then
              Hashtbl.replace sites site (label, ev.Skeleton.e_loc)
          | _ -> ())
        all;
      let listed =
        Hashtbl.fold
          (fun site (label, loc) acc ->
            Fmt.str "site %d (%s)%s" site label
              (if loc <> Loc.none then Fmt.str " [%a]" Loc.pp loc else "")
            :: acc)
          sites []
      in
      if listed <> [] then
        let loc =
          List.find_map
            (fun (ev : Skeleton.event) ->
              match ev.Skeleton.e_kind with
              | Skeleton.Ev_coll _ when ev.Skeleton.e_loc <> Loc.none ->
                Some ev.Skeleton.e_loc
              | _ -> None)
            all
        in
        addf w ?loc ?site:None Finding.Warning "collective-divergence"
          (Fmt.str
             "collective(s) under processor-divergent control flow: %s — \
              congruence cannot be verified"
             (String.concat ", " (List.sort compare listed)))
    end;
    (* assume the region's deliveries happened: the union of the
       distributed-dimension elements over the event's pid interval
       (exact up to 4096 senders, a contiguous hull beyond — the
       assume only ever *suppresses* later warnings) *)
    let span_elems ((lo_a, hi_a, st_a) as tr) ~plo ~phi =
      if
        lo_a.Skeleton.a = 0 && hi_a.Skeleton.a = 0 && st_a.Skeleton.a = 0
      then Iset.of_triplet (Skeleton.triplet_at tr plo)
      else if phi - plo < 4096 then
        List.fold_left
          (fun acc p -> Iset.union acc (Iset.of_triplet (Skeleton.triplet_at tr p)))
          Iset.empty
          (List.init (phi - plo + 1) (fun i -> plo + i))
      else
        let lo1 = Skeleton.aff_at lo_a plo and lo2 = Skeleton.aff_at lo_a phi in
        let hi1 = Skeleton.aff_at hi_a plo and hi2 = Skeleton.aff_at hi_a phi in
        let l = min lo1 lo2 and h = max hi1 hi2 in
        if l > h then Iset.empty else Iset.range l h
    in
    List.iter
      (fun (ev : Skeleton.event) ->
        let assume array elems =
          if not (Iset.is_empty elems) then
            emit w
              {
                Skeleton.e_plo = 0;
                e_phi = 0;
                e_loc = ev.Skeleton.e_loc;
                e_kind = Skeleton.Ev_assume { array; elems };
              }
        in
        match ev.Skeleton.e_kind with
        | Skeleton.Ev_send { parts; _ } ->
          List.iter
            (fun (sp : Skeleton.part) ->
              match (sp.Skeleton.p_triplets, sp.Skeleton.p_layout.Layout.dist_dim) with
              | Some tl, Some d when List.length tl > d ->
                assume sp.Skeleton.p_array
                  (span_elems (List.nth tl d) ~plo:ev.Skeleton.e_plo
                     ~phi:ev.Skeleton.e_phi)
              | _ -> ())
            parts
        | Skeleton.Ev_coll
            { payload = Skeleton.Cp_section { cs_array; cs_triplets = Some tl; cs_layout };
              _ } -> (
          match cs_layout.Layout.dist_dim with
          | Some d when List.length tl > d ->
            assume cs_array (Iset.of_triplet (List.nth tl d))
          | _ -> ())
        | _ -> ())
      all;
    let loc =
      List.find_map
        (fun (ev : Skeleton.event) ->
          if ev.Skeleton.e_loc <> Loc.none then Some ev.Skeleton.e_loc
          else None)
        all
    in
    addf w ?loc Finding.Info "unverified-region"
      "communication under statically-unresolved control flow is not \
       verified; its tags are excluded from deadlock and unmatched-send \
       verdicts"
  end

(* [slot] is the loop variable's, [havoc] the slots a skipped body may
   write, [mention] whether the body mentions my$p, [comm] whether it
   communicates (forced on first entry). *)
and walk_do w fr act ~var ~slot ~havoc ~mention ~comm (lo, hi, step) body
    : Iset.t =
  let n = w.n in
  let has_comm = Lazy.force comm in
  let vlo = lo fr and vhi = hi fr in
  let vst = step fr in
  let divergent_bounds =
    not
      (Absdom.is_uniform vlo && Absdom.is_uniform vhi
     && Absdom.is_uniform vst)
  in
  if not has_comm then begin
    (* communication-free loops are skipped entirely — the analysis only
       cares about the communication skeleton.  Scalars the body could
       write are forgotten; they diverge if the body mentions my$p, the
       bounds differ across processors, or the mask is partial. *)
    let divergent = divergent_bounds || mention || not (all_active w act) in
    havoc_scalars w fr act ~divergent havoc;
    act
  end
  else
    match (vlo, vhi, vst) with
    | Absdom.Uni (Absdom.Pint lo), Absdom.Uni (Absdom.Pint hi),
      Absdom.Uni (Absdom.Pint st)
      when st <> 0 ->
      (* uniform bounds: trip k runs on the whole live mask while
         lo + k*st is in range — what the unrolling below computes,
         without its per-trip comparisons and mask algebra *)
      let cell = cell_of fr slot var in
      let rec trip live v =
        if any_active live && (if st > 0 then v <= hi else v >= hi) then begin
          burn w;
          cell := Absdom.blend ~n ~act:live !cell (Absdom.Uni (Absdom.Pint v));
          trip (walk_seq w fr live body) (v + st)
        end
        else live
      in
      trip act lo
    | _ ->
      let known =
        Iset.inter
          (Absdom.int_pids ~n vlo)
          (Iset.inter (Absdom.int_pids ~n vhi) (Absdom.int_pids ~n vst))
      in
      if Iset.subset act known then begin
        let zero_pids =
          Iset.of_intervals
            (List.filter_map
               (fun (l, u, s) ->
                 match s with
                 | Absdom.Sconst (Absdom.Pint 0) -> Some (l, u)
                 | Absdom.Sconst _ -> None
                 | Absdom.Saff { a; b } ->
                   if b mod a = 0 then
                     let p = -b / a in
                     if p >= l && p <= u then Some (p, p) else None
                   else None)
               (Absdom.segs_of ~n vst))
        in
        if not (Iset.disjoint act zero_pids) then begin
          addf w Finding.Error "zero-do-step"
            (Fmt.str "DO %s has a zero step" var);
          act
        end
        else begin
          (* ordinal-lockstep unrolling: iteration k runs simultaneously on
             every processor still in range — the SPMD execution model.
             Membership tests are interval-set algebra, O(#segments). *)
          let cell = cell_of fr slot var in
          let zero = Absdom.Uni (Absdom.Pint 0) in
          let pos = true_pids w ~act (Absdom.app2 ~n Absdom.Gt vst zero) in
          let vk k =
            Absdom.app2 ~n Absdom.Add vlo
              (Absdom.app2 ~n Absdom.Mul (Absdom.Uni (Absdom.Pint k)) vst)
          in
          let in_range live v =
            let le = true_pids w ~act:live (Absdom.app2 ~n Absdom.Le v vhi) in
            let ge = true_pids w ~act:live (Absdom.app2 ~n Absdom.Ge v vhi) in
            Iset.union (Iset.inter pos le) (Iset.inter (Iset.diff live pos) ge)
          in
          let live = ref act in
          let k = ref 0 in
          let continue_ = ref true in
          while !continue_ do
            let v = vk !k in
            let act_k = in_range !live v in
            if Iset.is_empty act_k then continue_ := false
            else begin
              burn w;
              cell := Absdom.blend ~n ~act:act_k !cell v;
              let live_k = walk_seq w fr act_k body in
              (* processors that RETURNed during this iteration stay out *)
              live := Iset.union (Iset.diff !live act_k) live_k;
              incr k
            end
          done;
          !live
        end
      end
      else begin
        (* comm under statically-unknown trip counts: walk one symbolic
           iteration as a region *)
        havoc_scalars w fr act ~divergent:divergent_bounds [ slot ];
        let evs = walk_region w fr act body in
        finish_regions w ~if_loc:Loc.none ~divergent:divergent_bounds evs;
        act
      end

(* --- resolution ------------------------------------------------------- *)

(* Whether evaluating [e] can never stop the walk: no name is a formal
   (whose binding is known only per call), every other name is used as
   its slot's kind says, and every call is one [intrinsic] knows at that
   arity.  Asked after [eval] resolved [e], so it gives no name a slot
   that [eval] did not. *)
let rec total_expr w sc (e : Ast.expr) =
  let kind v =
    match sc.sc_kind (sc.sc_slot v) with
    | Frame.Common j -> Frame.kind w.common j
    | k -> k
  in
  match e with
  | Ast.Int_const _ | Ast.Real_const _ | Ast.Logical_const _ -> true
  | Ast.Var v -> ( match kind v with Frame.Local_scalar _ -> true | _ -> false)
  | Ast.Ref (name, _) -> (
    match kind name with Frame.Local_array _ -> true | _ -> false)
  | Ast.Bin (_, a, b) -> total_expr w sc a && total_expr w sc b
  | Ast.Un (_, a) -> total_expr w sc a
  | Ast.Funcall (("myproc" | "nprocs"), []) -> true
  | Ast.Funcall ("tab$", (_ :: _ as args)) -> List.for_all (total_expr w sc) args
  | Ast.Funcall ("owner$", Ast.Var arr :: subs) -> (
    (* a remap keeps the rank, so the subscript of any distributed
       dimension is there *)
    let nsubs = List.length subs in
    match kind arr with
    | Frame.Local_array { Node.ad_layout = l; _ } ->
      List.length l.Layout.bounds <= nsubs
      && (match l.Layout.dist_dim with Some d -> d < nsubs | None -> true)
      && List.for_all (total_expr w sc) subs
    | _ -> false)
  | Ast.Funcall (name, args) ->
    Intrinsic.lookup name (List.length args) <> None
    && List.for_all (total_expr w sc) args

(* The code of an inert statement, which [stmts] drops: an array store
   or a PRINT, or an IF over inert branches whose condition is
   [total_expr].  None carries abstract information or communication,
   the reason [walk_do] skips a comm-free loop. *)
let inert : code = fun _ act -> act

let rec stmts w sc body = List.filter (fun c -> c != inert) (List.map (stmt w sc) body)

and stmt w sc (s : Node.nstmt) : code =
  match s with
  | Node.N_assign (Ast.Var name, rhs) ->
    let rhs = eval w sc rhs and cell = scalar_cell sc name in
    let into = slot_zero w sc name in
    fun fr act ->
      let v = rhs fr in
      do_assign w act ?into (cell fr) v;
      act
  | Node.N_assign (Ast.Ref _, _) | Node.N_print _ -> inert
  | Node.N_assign _ ->
    fun _ _ -> raise (Stuck "bad assignment target in node program")
  | Node.N_return -> fun _ _ -> Iset.empty
  | Node.N_send { dest; parts; tag; loc } ->
    let dest = eval w sc dest in
    let parts =
      List.map
        (fun (array, section) ->
          (array_obj sc array, array, compile_section w sc section))
        parts
    in
    fun fr act ->
      emit_send w fr act ~loc dest parts tag;
      act
  | Node.N_recv { src; tag; loc } ->
    let src = eval w sc src in
    fun fr act ->
      emit_recv w fr act ~loc src tag sc.sc_visible;
      act
  | Node.N_bcast { root; payload; site; loc } ->
    let root = eval w sc root in
    let payload =
      match payload with
      | Node.P_scalar name -> `Scalar (name, scalar_cell sc name)
      | Node.P_section (array, section) ->
        `Section (array, array_obj sc array, compile_section w sc section)
    in
    fun fr act ->
      do_bcast w fr act ~loc root payload site;
      act
  | Node.N_remap { array; new_layout; move; site; loc } ->
    let obj = array_obj sc array in
    fun fr act ->
      do_remap w act ~loc array (obj fr) new_layout move site;
      act
  | Node.N_call (name, args) ->
    let callee = lazy (resolve_callee w name) in
    let args =
      List.map
        (function Ast.Var v -> `Ref (sc.sc_slot v) | e -> `Value (eval w sc e))
        args
    in
    fun fr act ->
      walk_call w fr act name (Lazy.force callee) args;
      act
  | Node.N_if { cond; then_; else_; loc } -> (
    let code = eval w sc cond in
    let then_ = stmts w sc then_ in
    let else_ = stmts w sc else_ in
    match (then_, else_) with
    | [], [] when total_expr w sc cond -> inert
    | _ -> fun fr act -> walk_if w fr act ~loc (code fr) then_ else_)
  | Node.N_do { var; lo; hi; step; body } ->
    let slot = sc.sc_slot var in
    let havoc = slot :: List.map sc.sc_slot (assigned_scalars w body) in
    let mention = stmts_mention_divergence body in
    let comm = lazy (stmts_have_comm w body) in
    let bounds =
      ( eval w sc lo,
        eval w sc hi,
        match step with
        | None -> const (Absdom.Uni (Absdom.Pint 1))
        | Some e -> eval w sc e )
    in
    let body = stmts w sc body in
    fun fr act -> walk_do w fr act ~var ~slot ~havoc ~mention ~comm bounds body

and resolve_callee w name =
  match Hashtbl.find_opt w.procs name with
  | Some rp -> Some rp
  | None ->
    Option.map
      (fun np ->
        let rp = resolve w np in
        Hashtbl.replace w.procs name rp;
        rp)
      (Node.find_proc w.prog name)

(* Resolve [np] over its {!Frame} layout, the simulator's.  A receive
   mentions every COMMON array, so each has a slot. *)
and resolve w (np : Node.nproc) : rproc =
  let layout =
    Frame.make ~formals:np.Node.np_formals ~arrays:np.Node.np_arrays
      ~scalars:np.Node.np_scalars ~is_common:(fun v -> Frame.find w.common v <> None)
  in
  let sc_slot = Frame.slot layout ~common:w.common in
  let common_array name =
    match Option.map (Array.get w.globals) (Frame.find w.common name) with
    | Some (Barray _ as b) -> Some b
    | _ -> None
  in
  List.iter (fun (ad : Node.array_decl) -> ignore (sc_slot ad.Node.ad_name))
    w.prog.Node.n_common_arrays;
  let sc_visible =
    Frame.fold (fun name s acc -> (name, s, common_array name) :: acc) layout []
  in
  let sc = { sc_slot; sc_kind = Frame.kind layout; sc_visible } in
  let r_body = stmts w sc np.Node.np_body in
  let kinds = Array.init (Frame.size layout) (Frame.kind layout) in
  { r_layout = layout;
    r_fresh = (fun () -> Array.map (fresh w.globals) kinds);
    r_formals = List.map sc_slot np.Node.np_formals;
    r_body }

(* --- entry ------------------------------------------------------------ *)

let no_program msg =
  {
    events = [];
    findings =
      [
        Finding.make Finding.Error "invalid-node-program"
          ("the node program is not executable: " ^ msg);
      ];
    fuzzy_tags = Hashtbl.create 1;
    complete = false;
    visits = 0;
    comm_regions = [];
  }

let state ?budget ?branch_oracle ~nprocs (prog : Node.program) =
  let common =
    Frame.common ~arrays:prog.Node.n_common_arrays ~scalars:prog.Node.n_common_scalars
  in
  {
    n = nprocs;
    prog;
    oracle = branch_oracle;
    budget = Option.map Budget.start budget;
    common;
    globals = Array.init (Frame.size common) (fun j -> fresh [||] (Frame.kind common j));
    procs = Hashtbl.create 8;
    fuel = fuel_budget;
    uncertain = 0;
    buf = ref [];
    next_id = 0;
    findings = [];
    fuzzy = Hashtbl.create 8;
    send_stats = Hashtbl.create 16;
    comm_memo = Hashtbl.create 8;
    finding_seen = Hashtbl.create 16;
    comm_regions = [];
    calls = Calls.create 16;
  }

let frames (prog : Node.program) =
  let w = state ~nprocs:prog.Node.n_nprocs prog in
  List.map
    (fun (np : Node.nproc) ->
      let rp = resolve w np in
      let layout = rp.r_layout in
      let kind name =
        let s = Frame.slot layout ~common:w.common name in
        let formal = ref None in
        List.iteri (fun k f -> if f = s then formal := Some k) rp.r_formals;
        match (!formal, fresh w.globals (Frame.kind layout s)) with
        | Some k, _ -> Printf.sprintf "formal %d" k
        | None, b when Array.exists (( == ) b) w.globals -> "common"
        | None, Barray _ -> "array"
        | None, Bscalar { contents = Absdom.Uni (Absdom.Pint _) } -> "scalar integer"
        | None, Bscalar { contents = Absdom.Uni (Absdom.Preal _) } -> "scalar real"
        | None, Bscalar { contents = Absdom.Uni (Absdom.Pbool _) } -> "scalar logical"
        | None, Bscalar _ -> "scalar ?"
      in
      (np.Node.np_name, Frame.fold (fun name _ acc -> name :: acc) layout [], kind))
    prog.Node.n_procs

let walk_main ?budget ?branch_oracle ~nprocs (prog : Node.program)
    (main : Node.nproc) : result =
  let w = state ?budget ?branch_oracle ~nprocs prog in
  let main = resolve w main in
  let act = Iset.range 0 (nprocs - 1) in
  let complete =
    try
      ignore (walk_seq w (main.r_fresh ()) act main.r_body);
      true
    with
    | Truncated ->
      w.findings <-
        Finding.make Finding.Info "analysis-truncated"
          (Fmt.str
             "static analysis budget (%d statement visits) exhausted; \
              communication matching was skipped"
             fuel_budget)
        :: w.findings;
      false
    | Stuck msg ->
      w.findings <-
        Finding.make Finding.Error "invalid-node-program"
          ("the node program is not executable: " ^ msg)
        :: w.findings;
      false
    | Budget_out reason ->
      w.findings <-
        Finding.make Finding.Info "budget-exhausted"
          (reason ^ "; the remaining region is unverified")
        :: w.findings;
      false
  in
  (* dead-send lint: a send statement that never carries an element for
     any processor on any visit *)
  Hashtbl.iter
    (fun (loc, tag) (nonempty, empty) ->
      if !empty > 0 && !nonempty = 0 then
        addf w ~loc ~tag Finding.Warning "empty-send"
          (Fmt.str
             "send {tag %d} carries no elements for any processor (dead \
              communication)" tag))
    w.send_stats;
  {
    events = List.rev !(w.buf);
    findings = w.findings;
    fuzzy_tags = w.fuzzy;
    complete;
    visits = fuel_budget - w.fuel;
    comm_regions = List.rev w.comm_regions;
  }

let walk ?budget ?branch_oracle ~nprocs (prog : Node.program) : result =
  match Node.find_proc prog prog.Node.n_main with
  | None -> no_program (Fmt.str "no main node program %s" prog.Node.n_main)
  | Some main -> (
    try walk_main ?budget ?branch_oracle ~nprocs prog main
    with Stuck msg -> no_program msg)

let scalar ~nprocs e =
  let prog =
    { Node.n_main = ""; n_nprocs = nprocs; n_common_arrays = []; n_common_scalars = [];
      n_procs = [] }
  in
  let sc =
    { sc_slot = (fun _ -> 0); sc_kind = (fun _ -> Frame.Formal (0, None)); sc_visible = [] }
  in
  eval (state ~nprocs prog) sc e [| Bscalar (ref (Absdom.myproc ~n:nprocs)) |]

let stores ~nprocs decls body =
  let np =
    { Node.np_name = "main"; np_formals = []; np_arrays = [];
      np_scalars = ("my$p", Ast.Integer) :: decls;
      np_body =
        List.map
          (fun (x, e) -> Node.N_assign (Ast.Var x, e))
          (("my$p", Ast.Funcall ("myproc", [])) :: body) }
  in
  let prog =
    { Node.n_main = "main"; n_nprocs = nprocs; n_common_arrays = []; n_common_scalars = [];
      n_procs = [ np ] }
  in
  let w = state ~nprocs prog in
  let rp = resolve w np in
  let fr = rp.r_fresh () in
  ignore (walk_seq w fr (Iset.range 0 (nprocs - 1)) rp.r_body);
  List.map (fun (x, _) -> !(cell_of fr (Frame.slot rp.r_layout ~common:w.common x) x)) decls
