(* Dynamic data decomposition (paper Section 6).

   Remapping operations are materialized as `remap$` pseudo-statements in
   the procedure body (around call sites, from the callees' exported
   DecompBefore/DecompAfter sets; and at local DISTRIBUTE statements),
   then optimized:

     - live decompositions: CFG-based dead-remap elimination (Fig. 16b)
       and redundant-remap removal (coalescing);
     - loop-invariant decompositions: hoisting leading/trailing remaps out
       of loops (Fig. 16c);
     - array kills: a physical remap whose array's values are dead (fully
       overwritten before any read) becomes a mark-only remap (Fig. 16d).

   The pseudo-statement encoding is
     call remap$(X, dim, kind, blocksize, move)
   with kind 0=replicated 1=block 2=cyclic 3=block_cyclic, dim 0-based
   (-1 = replicated), move 1=physical 0=mark-only. *)

open Fd_support
open Fd_frontend
open Fd_analysis

module SS = Set.Make (String)
module IS = Set.Make (Int)

(* Each compile numbers its pseudo-statements pseudo_sid_base + 1,
   + 2, ...: above every parsed statement id and distinct within the
   compile. *)
let pseudo_sid_base = 1_000_000

type sids = { mutable last : int }

let new_sids () = { last = pseudo_sid_base }
let last_sid sids = sids.last

type remap = { rm_array : string; rm_decomp : Decomp.t; rm_move : bool }

let kind_code = function
  | Ast.Star -> (0, 0)
  | Ast.Block -> (1, 0)
  | Ast.Cyclic -> (2, 0)
  | Ast.Block_cyclic k -> (3, k)

let kind_of_code code size =
  match code with
  | 0 -> Ast.Star
  | 1 -> Ast.Block
  | 2 -> Ast.Cyclic
  | 3 -> Ast.Block_cyclic size
  | _ -> Diag.error "bad remap$ kind code %d" code

let encode_remap sid (rm : remap) : Ast.stmt =
  let dim, kind, size =
    match Decomp.dist_dim rm.rm_decomp with
    | None -> (-1, 0, 0)
    | Some (d, k) ->
      let c, s = kind_code k in
      (d, c, s)
  in
  { Ast.sid = sid;
    loc = Loc.none;
    kind =
      Ast.Call
        ( "remap$",
          [ Ast.Var rm.rm_array; Ast.Int_const dim; Ast.Int_const kind;
            Ast.Int_const size; Ast.Int_const (if rm.rm_move then 1 else 0) ] ) }

let remap_stmt sids rm =
  sids.last <- sids.last + 1;
  encode_remap sids.last rm

let as_remap (s : Ast.stmt) : remap option =
  match s.Ast.kind with
  | Ast.Call
      ( "remap$",
        [ Ast.Var array; Ast.Int_const dim; Ast.Int_const kind; Ast.Int_const size;
          Ast.Int_const move ] ) ->
    let rank = 1 + max dim 0 in
    let kinds =
      if dim < 0 then []
      else
        List.init rank (fun i -> if i = dim then kind_of_code kind size else Ast.Star)
    in
    Some
      { rm_array = array;
        rm_decomp = (if dim < 0 then Decomp.replicated 1 else Decomp.of_kinds kinds);
        rm_move = move = 1 }
  | _ -> None

let is_remap_of array s =
  match as_remap s with Some r -> String.equal r.rm_array array | None -> false

(* remap$ preserves the rank opaquely: the code generator resolves the
   actual rank from the symbol table; only dist_dim/kind matter here. *)

(* --- Uses of an array's current decomposition ------------------------ *)

(* Does statement [s] (not descending into compound bodies) use array
   [x]'s decomposition: reference it, or pass it to a procedure that
   references it? *)
let stmt_uses_array ~(call_touches : string -> Ast.expr list -> SS.t) (x : string)
    (s : Ast.stmt) : bool =
  match as_remap s with
  | Some _ -> false
  | None -> (
    let found = ref false in
    let check_expr e =
      Ast.iter_exprs_expr
        (fun e' ->
          match e' with
          | Ast.Ref (a, _) when String.equal a x -> found := true
          | Ast.Var a when String.equal a x -> found := true
          | _ -> ())
        e
    in
    (match s.Ast.kind with
    | Ast.Assign (lhs, rhs) ->
      check_expr lhs;
      check_expr rhs
    | Ast.Do d ->
      check_expr d.lo;
      check_expr d.hi;
      Option.iter check_expr d.step
    | Ast.If i -> check_expr i.cond
    | Ast.Call (callee, args) ->
      if SS.mem x (call_touches callee args) then found := true
    | Ast.Print args -> List.iter check_expr args
    | Ast.Align _ | Ast.Distribute _ | Ast.Return -> ());
    !found)

let rec subtree_uses_array ~call_touches x (s : Ast.stmt) : bool =
  stmt_uses_array ~call_touches x s
  ||
  match s.Ast.kind with
  | Ast.Do d -> List.exists (subtree_uses_array ~call_touches x) d.body
  | Ast.If i ->
    List.exists (subtree_uses_array ~call_touches x) i.then_
    || List.exists (subtree_uses_array ~call_touches x) i.else_
  | _ -> false

let rec subtree_remaps_array x (s : Ast.stmt) : bool =
  is_remap_of x s
  ||
  match s.Ast.kind with
  | Ast.Do d -> List.exists (subtree_remaps_array x) d.body
  | Ast.If i ->
    List.exists (subtree_remaps_array x) i.then_
    || List.exists (subtree_remaps_array x) i.else_
  | _ -> false

(* Drop the statements whose ids are in [sids], at any depth; the body
   as it is when there are none. *)
let drop_sids (sids : IS.t) (body : Ast.stmt list) : Ast.stmt list =
  let rec filter stmts =
    List.filter_map
      (fun (s : Ast.stmt) ->
        if IS.mem s.Ast.sid sids then None
        else
          match s.Ast.kind with
          | Ast.Do d -> Some { s with kind = Ast.Do { d with body = filter d.body } }
          | Ast.If i ->
            Some
              { s with
                kind = Ast.If { i with then_ = filter i.then_; else_ = filter i.else_ } }
          | _ -> Some s)
      stmts
  in
  if IS.is_empty sids then body else filter body

(* Each CFG node's remap, decoded once. *)
let remaps_of cfg =
  Array.init (Cfg.length cfg) (fun i ->
    match Cfg.node cfg i with Cfg.Stmt s -> as_remap s | Cfg.Entry | Cfg.Exit -> None)

(* --- Pass 1: dead-remap elimination (backward liveness on the CFG) --- *)

module Live = Dataflow.Make (struct
  type t = SS.t

  let bottom = SS.empty
  let join = SS.union
  let equal = SS.equal
end)

(* Facts: the arrays whose current decomposition may still be used
   downstream.  Only arrays some remap names are tracked, since only
   their liveness decides a removal. *)
let dead_remap_elim ~work ~call_touches ~live_out (body : Ast.stmt list) :
    Ast.stmt list * int =
  let cfg = Cfg.build body in
  let remaps = remaps_of cfg in
  let tracked =
    Array.fold_left
      (fun acc r -> match r with Some r -> SS.add r.rm_array acc | None -> acc)
      SS.empty remaps
  in
  if SS.is_empty tracked then (body, 0)
  else begin
    (* the tracked arrays each statement uses *)
    let uses =
      Array.init (Cfg.length cfg) (fun i ->
        match Cfg.node cfg i with
        | Cfg.Stmt s when remaps.(i) = None ->
          SS.filter (fun x -> stmt_uses_array ~call_touches x s) tracked
        | _ -> SS.empty)
    in
    let transfer i _ live =
      match remaps.(i) with
      | Some r -> SS.remove r.rm_array live
      | None -> SS.fold SS.add uses.(i) live
    in
    let result =
      Live.solve ~direction:Dataflow.Backward ~init:(SS.inter live_out tracked) ~transfer cfg
    in
    Live.count work result;
    (* a remap is dead when its array is not live after it: the join of
       its successors' facts, the solver's input at the node *)
    let dead = ref IS.empty in
    Array.iteri
      (fun i r ->
        match (r, Cfg.node cfg i) with
        | Some r, Cfg.Stmt s when not (SS.mem r.rm_array result.Live.input.(i)) ->
          dead := IS.add s.Ast.sid !dead
        | _ -> ())
      remaps;
    (drop_sids !dead body, IS.cardinal !dead)
  end

(* --- Pass 2: redundant-remap removal (forward decomposition tracking) - *)

module DM = Map.Make (String)

(* fact: array -> current decomposition; absence = unknown/conflict.
   The lattice join keeps only agreeing entries. *)
module Layouts = Dataflow.Make (struct
  type t = Decomp.t DM.t option  (* None = unreachable (bottom) *)

  let bottom = None

  let join a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some m1, Some m2 ->
      Some
        (DM.merge
           (fun _ d1 d2 ->
             match (d1, d2) with
             | Some x, Some y when Decomp.equal x y -> Some x
             | _ -> None)
           m1 m2)

  let equal a b =
    match (a, b) with
    | None, None -> true
    | Some m1, Some m2 -> DM.equal Decomp.equal m1 m2
    | _ -> false
end)

let redundant_remap_elim ~work ~(initial : Decomp.t DM.t) (body : Ast.stmt list) :
    Ast.stmt list * int =
  let cfg = Cfg.build body in
  let remaps = remaps_of cfg in
  let transfer i node fact =
    match (node, fact, remaps.(i)) with
    | Cfg.Entry, None, _ -> Some initial
    | Cfg.Stmt _, Some m, Some r -> Some (DM.add r.rm_array r.rm_decomp m)
    | _ -> fact
  in
  let result = Layouts.solve ~direction:Dataflow.Forward ~init:(Some initial) ~transfer cfg in
  Layouts.count work result;
  let redundant = ref IS.empty in
  Array.iteri
    (fun i r ->
      match (r, Cfg.node cfg i, result.Layouts.input.(i)) with
      | Some r, Cfg.Stmt s, Some m -> (
        match DM.find_opt r.rm_array m with
        | Some d when Decomp.equal d r.rm_decomp -> redundant := IS.add s.Ast.sid !redundant
        | _ -> ())
      | _ -> ())
    remaps;
  (drop_sids !redundant body, IS.cardinal !redundant)

(* --- Pass 3: loop-invariant hoisting --------------------------------- *)

(* A remap R of X inside a loop body may move *after* the loop when no
   use of X follows it in the body, and the first X-touching item of the
   body (reached via the back edge) is itself a remap of X (or X is not
   used in the body at all).  A remap at the head of the body that is the
   only remap of X left in the body may then move *before* the loop. *)
let rec hoist_loops ~call_touches (stmts : Ast.stmt list) : Ast.stmt list =
  let uses x s = subtree_uses_array ~call_touches x s in
  List.concat_map
    (fun (s : Ast.stmt) ->
      match s.Ast.kind with
      | Ast.Do d ->
        let body = hoist_loops ~call_touches d.body in
        (* collect remaps movable after the loop *)
        let first_touch_is_remap x body =
          let rec scan = function
            | [] -> true  (* X untouched in body *)
            | t :: rest ->
              if is_remap_of x t then true
              else if uses x t || subtree_remaps_array x t then false
              else scan rest
          in
          scan body
        in
        let rec split before = function
          | [] -> (List.rev before, [])
          | t :: rest -> (
            match as_remap t with
            | Some r
              when (not (List.exists (uses r.rm_array) rest))
                   && not (List.exists (subtree_remaps_array r.rm_array) rest) ->
              if first_touch_is_remap r.rm_array (List.rev_append before rest) then
                let kept, trailing = split before rest in
                (kept, t :: trailing)
              else split (t :: before) rest
            | _ -> split (t :: before) rest)
        in
        let body, trailing = split [] body in
        (* leading remap that is the only remap of its array in the
           body: move before the loop *)
        let leading, body =
          match body with
          | first :: rest when as_remap first <> None ->
            let r = Option.get (as_remap first) in
            if not (List.exists (subtree_remaps_array r.rm_array) rest) then
              (Some first, rest)
            else (None, body)
          | _ -> (None, body)
        in
        Option.to_list leading
        @ [ { s with kind = Ast.Do { d with body } } ]
        @ trailing
      | Ast.If i ->
        let then_ = hoist_loops ~call_touches i.then_ in
        let else_ = hoist_loops ~call_touches i.else_ in
        [ { s with kind = Ast.If { i with then_; else_ } } ]
      | _ -> [ s ])
    stmts

(* --- Pass 4: array kills (remap in place) ----------------------------- *)

(* Does this statement subtree fully overwrite [x] (declared bounds
   [dims]) without reading it first?  Detected for rectangular loop nests
   with affine stores covering the whole declared region. *)
let fully_overwrites (symtab : Symtab.t) (dims : (int * int) list) (x : string)
    (s : Ast.stmt) : bool =
  let refs = Sections.collect symtab [ s ] in
  let reads = List.filter (fun r -> (not r.Sections.is_write) && String.equal r.Sections.array x) refs in
  if reads <> [] then false
  else begin
    let written = Sections.written_region ~declared:dims ~array:x refs in
    let full =
      Region.of_triplets (List.map (fun (lo, hi) -> Triplet.make ~lo ~hi ~step:1) dims)
    in
    (* written is an over-approximation in general, but for exact affine
       single-loop-var subscripts it is exact; require subscripts to be
       exact before trusting coverage *)
    let writes = List.filter (fun r -> r.Sections.is_write && String.equal r.Sections.array x) refs in
    let exact =
      List.for_all
        (fun (r : Sections.ref_info) ->
          List.for_all
            (fun sub ->
              match sub with
              | Some a -> (
                match Affine.vars a with
                | [] -> true
                | [ _ ] -> true
                | _ -> false)
              | None -> false)
            r.Sections.subs)
        writes
    in
    exact && Region.subset full written
  end

(* Is the first of [stmts] to touch [x] one that kills its values: a
   full overwrite before any read, or a call for which
   [value_killer callee actuals x] holds?  A remap of [x] first, or no
   touch at all, is not a kill.  Any call passing [x] as an actual
   touches it. *)
let first_touch_kills ~(symtab : Symtab.t)
    ~(value_killer : string -> Ast.expr list -> string -> bool) x stmts =
  let passes_x _callee args =
    if List.exists (function Ast.Var v -> String.equal v x | _ -> false) args then
      SS.singleton x
    else SS.empty
  in
  match
    List.find_opt
      (fun t -> subtree_remaps_array x t || subtree_uses_array ~call_touches:passes_x x t)
      stmts
  with
  | None -> false
  | Some t when subtree_remaps_array x t -> false
  | Some t -> (
    match t.Ast.kind with
    | Ast.Call (callee, args) -> value_killer callee args x
    | _ -> (
      match Symtab.array_info symtab x with
      | Some info -> fully_overwrites symtab info.Symtab.dims x t
      | None -> false))

(* Scan each block: a physical remap whose array's next touch in the
   same block kills its values becomes mark-only. *)
let array_kills ~symtab ~value_killer (body : Ast.stmt list) : Ast.stmt list =
  let rec scan_block (stmts : Ast.stmt list) : Ast.stmt list =
    match stmts with
    | [] -> []
    | s :: rest -> (
      match as_remap s with
      | Some r when r.rm_move && first_touch_kills ~symtab ~value_killer r.rm_array rest ->
        encode_remap s.Ast.sid { r with rm_move = false } :: scan_block rest
      | Some _ -> s :: scan_block rest
      | None -> (
        match s.Ast.kind with
        | Ast.Do d ->
          { s with kind = Ast.Do { d with body = scan_block d.body } } :: scan_block rest
        | Ast.If i ->
          { s with
            kind = Ast.If { i with then_ = scan_block i.then_; else_ = scan_block i.else_ } }
          :: scan_block rest
        | _ -> s :: scan_block rest))
  in
  scan_block body

let rec holds_remap (s : Ast.stmt) =
  match s.Ast.kind with
  | Ast.Call ("remap$", _) -> true
  | Ast.Do d -> List.exists holds_remap d.body
  | Ast.If i -> List.exists holds_remap i.then_ || List.exists holds_remap i.else_
  | _ -> false

(* Run the optimization passes appropriate to the remap level.  Every
   pass only removes or rewrites remaps, so a body without one is
   returned as it is. *)
let optimize (level : Options.remap_level) ~work ~call_touches ~live_out ~initial ~symtab
    ~value_killer (body : Ast.stmt list) : Ast.stmt list =
  match level with
  | Options.Remap_none -> body
  | _ when not (List.exists holds_remap body) -> body
  | Options.Remap_live | Options.Remap_hoist | Options.Remap_kill ->
    let live body =
      fst
        (redundant_remap_elim ~work ~initial
           (fst (dead_remap_elim ~work ~call_touches ~live_out body)))
    in
    let body = live body in
    let body =
      if level = Options.Remap_live then body else live (hoist_loops ~call_touches body)
    in
    if level = Options.Remap_kill then array_kills ~symtab ~value_killer body else body
