(* The communication skeleton: the residue of a node program after the
   abstract interpreter (Absint) strips away computation.  Since the
   compressed-ensemble refactor an event no longer belongs to a single
   processor: it covers a pid interval [e_plo, e_phi] and its endpoints
   (send destination, recv source) are affine forms a*pid + b, so one
   event stands for up to P per-processor events.  This module replays
   that skeleton with an abstract scheduler that mirrors
   Fd_machine.Scheduler.  The group engine ([replay]) is shared with the
   cost analyzer; [run] is its verification lens:

   - point-to-point sends queue one message per sender pid; a recv
     blocks until a matching message is queued.  A whole interval of
     receivers advances in one step when its source form composes with
     a queued message's destination form to the identity (send from
     [l, u] with dest pid+1 matches recv on [l+1, u+1] from pid-1);
     when the first message any receiver can take matches only some of
     them, the interval is cut at the edge of that set and each piece
     re-matches; only wildcard matches fall back to pid-at-a-time
     matching in the exact order the dense replay used, so findings are
     unchanged;
   - collectives barrier on their emission id (the walker emits one
     interval event per dynamic collective instance, covering the full
     ensemble);
   - when no processor can make progress and some are unfinished, that
     is a static deadlock — reported with the same wait-for graph and
     cycle extraction as the dynamic scheduler's Deadlock error.

   Payload validity is checked in causal order, mirroring the storage
   model: an element may be sent only if the sender owns it or has
   received it earlier (Storage.Invalid_read otherwise), and a remap
   invalidates everything previously received for that array.  Received
   sets are parametric in the pid — {slope*pid + e | e in base} over a
   pid set — so a broadcast grows all P received sets in O(1). *)

open Fd_support
open Fd_machine

(* --- affine pid forms -------------------------------------------------- *)

type aff = Replay.aff = { a : int; b : int }  (* fun pid -> a*pid + b *)

let aff_at = Replay.aff_at
let aff_const c = { a = 0; b = c }

let pp_aff ppf f =
  if f.a = 0 then Fmt.pf ppf "%d" f.b
  else if f.a = 1 then
    if f.b = 0 then Fmt.string ppf "p" else Fmt.pf ppf "p%+d" f.b
  else if f.a = -1 then
    if f.b = 0 then Fmt.string ppf "-p" else Fmt.pf ppf "-p%+d" f.b
  else Fmt.pf ppf "%d*p%+d" f.a f.b

(* --- events ------------------------------------------------------------ *)

type part = {
  p_array : string;
  p_triplets : (aff * aff * aff) list option;
      (* per-dim (lo, hi, step) of the sent section, affine in the
         SENDER pid; None: section not evaluable *)
  p_layout : Layout.t;  (* sender's layout at emission *)
}

type recv_array = {
  ra_name : string;
  ra_layout : Layout.t;  (* receiver's layout at emission *)
}

type coll_payload =
  | Cp_scalar of string
  | Cp_section of {
      cs_array : string;
      cs_triplets : Triplet.t list option;  (* evaluated at the root *)
      cs_layout : Layout.t;  (* root's layout at emission *)
    }
  | Cp_remap of {
      cr_array : string;
      cr_old : Layout.t;  (* reaching layout before the remap *)
      cr_new : Layout.t;  (* target layout *)
      cr_move : bool;  (* physical move vs. mark-only (array-kill opt) *)
    }

type kind =
  | Ev_send of { dest : aff option; tag : int; parts : part list }
  | Ev_recv of { src : aff option; tag : int; arrays : recv_array list }
  | Ev_coll of { id : int; site : int; label : string; root : int option;
                 payload : coll_payload }
  | Ev_assume of { array : string; elems : Iset.t }
      (* data conservatively assumed delivered by communication inside a
         region the walker could not verify: grows every processor's
         received set so later sends are not falsely flagged *)

type event = { e_plo : int; e_phi : int; e_kind : kind; e_loc : Loc.t }

(* Evaluate an affine section triplet at a concrete (sender) pid.  The
   walker only emits steps it proved positive; guard anyway. *)
let triplet_at (lo, hi, st) p =
  let s = aff_at st p in
  if s < 1 then Triplet.empty
  else Triplet.make ~lo:(aff_at lo p) ~hi:(aff_at hi p) ~step:s

(* --- the group engine ---------------------------------------------------- *)

(* The replay both lenses share.  Groups — maximal pid intervals whose
   processors sit at the same event and carry equal lens payloads —
   partition [0, n-1] and advance in rounds, pids ascending within a
   round as in the dense scheduler.  The engine owns when a group
   splits and in what order groups move; the lens owns what a send, a
   receive or a collective does to its payload. *)

type 'p group = {
  mutable g_lo : int;
  mutable g_hi : int;
  mutable g_cur : int;  (* index of the group's next event *)
  mutable g_seen : bool;  (* advanced-until-blocked this round *)
  mutable g_pay : 'p;
}

type ('p, 'm) hooks = {
  same : 'p -> 'p -> bool;
  send : 'p group -> loc:Loc.t -> dest:aff option -> tag:int -> part list -> 'p;
  recv_one :
    'p group -> loc:Loc.t -> src:aff option -> tag:int -> recv_array list ->
    ('m Replay.msg * int) option -> 'p;
  recv_group :
    'p group -> loc:Loc.t -> tag:int -> recv_array list -> 'm Replay.msg -> aff ->
    [ `Advance of 'p | `Cut of int ];
  coll : 'p group list -> event -> (int * int * 'p) list;
  stuck : 'p group list -> bool;
}

let group ~lo ~hi ~cur pay =
  { g_lo = lo; g_hi = hi; g_cur = cur; g_seen = false; g_pay = pay }

let normalize same groups =
  let rec merge = function
    | a :: b :: rest
      when a.g_cur = b.g_cur && b.g_lo = a.g_hi + 1 && same a.g_pay b.g_pay ->
      a.g_hi <- b.g_hi;
      merge (a :: rest)
    | a :: rest -> a :: merge rest
    | [] -> []
  in
  merge groups

(* Carve the lowest pid off so it acts first, as in the dense
   pid-ascending round.  Splits return the pieces in pid order. *)
let split_singleton g =
  let s = group ~lo:g.g_lo ~hi:g.g_lo ~cur:g.g_cur g.g_pay in
  g.g_lo <- g.g_lo + 1;
  [ s; g ]

(* Cut [g] just below each of [cuts] that falls inside it. *)
let split_at g cuts =
  let cuts = List.filter (fun c -> c > g.g_lo && c <= g.g_hi) cuts in
  g
  :: List.fold_left
       (fun uppers c ->
         let upper = group ~lo:c ~hi:g.g_hi ~cur:g.g_cur g.g_pay in
         g.g_hi <- c - 1;
         upper :: uppers)
       [] (List.rev (List.sort_uniq compare cuts))

(* Advance [g] until it blocks or splits; returns what replaces it. *)
let advance h q (evs : event array) progress g =
  let pieces = ref [] in
  let block () =
    g.g_seen <- true;
    pieces := [ g ]
  in
  let step pay =
    g.g_pay <- pay;
    g.g_cur <- g.g_cur + 1;
    progress := true
  in
  while !pieces == [] do
    if g.g_cur >= Array.length evs then block ()
    else begin
      let ev = evs.(g.g_cur) and lo = g.g_lo and hi = g.g_hi in
      if ev.e_phi < lo || ev.e_plo > hi then g.g_cur <- g.g_cur + 1
      else if ev.e_plo > lo || ev.e_phi < hi then
        pieces := split_at g [ ev.e_plo; ev.e_phi + 1 ]
      else
        match ev.e_kind with
        | Ev_assume _ -> g.g_cur <- g.g_cur + 1
        | Ev_coll _ -> block ()
        | Ev_send { dest = None; _ } when lo < hi ->
          (* wild sends queue in pid order; keep dense FIFO *)
          pieces := split_singleton g
        | Ev_send { dest; tag; parts } -> step (h.send g ~loc:ev.e_loc ~dest ~tag parts)
        | Ev_recv { src; tag; arrays } when lo = hi -> (
          let hit = Replay.match_one q lo (Option.map (fun s -> aff_at s lo) src) tag in
          let pay = h.recv_one g ~loc:ev.e_loc ~src ~tag arrays hit in
          match hit with
          | Some (m, sdr) ->
            Replay.consume q m (Iset.singleton sdr);
            step pay
          | None -> block ())
        | Ev_recv { src = None; _ } -> pieces := split_singleton g
        | Ev_recv { src = Some s; tag; arrays } -> (
          match Replay.match_group q ~lo ~hi s tag with
          | `None -> block ()
          | `Split -> pieces := split_singleton g
          | `Cut c -> pieces := split_at g [ c ]
          | `All m -> (
            match h.recv_group g ~loc:ev.e_loc ~tag arrays m s with
            | `Advance pay ->
              Replay.consume q m (Replay.image_of_interval s ~lo ~hi);
              step pay
            | `Cut c -> pieces := split_at g [ c ]))
    end
  done;
  !pieces

(* Advance the lowest unseen group until every group is seen.  The
   groups before the one advancing are all seen, so one pass over the
   pid-ordered list, with each split's pieces put back in its place,
   visits them in the same order as re-sorting after every step. *)
let pump adv groups =
  let rec go seen = function
    | [] -> List.rev seen
    | g :: rest when g.g_seen -> go (g :: seen) rest
    | g :: rest -> go seen (adv g @ rest)
  in
  go [] groups

let replay h q ~nprocs pay (evs : event array) =
  let len = Array.length evs in
  let progress = ref false in
  let at_coll g =
    if g.g_cur >= len then None
    else match evs.(g.g_cur).e_kind with Ev_coll _ -> Some g.g_cur | _ -> None
  in
  let rec rounds groups =
    progress := false;
    Replay.next_round q;
    List.iter (fun g -> g.g_seen <- false) groups;
    let groups = pump (advance h q evs progress) (normalize h.same groups) in
    (* collective barrier: fire when the whole ensemble is parked at the
       same emission *)
    let groups =
      match groups with
      | g0 :: rest
        when at_coll g0 <> None
             && List.for_all (fun g -> at_coll g = at_coll g0) rest ->
        progress := true;
        List.map
          (fun (lo, hi, pay) -> group ~lo ~hi ~cur:(g0.g_cur + 1) pay)
          (h.coll groups evs.(g0.g_cur))
      | _ -> groups
    in
    if !progress then rounds groups
    else begin
      let blocked = List.filter (fun g -> g.g_cur < len) groups in
      if blocked <> [] && h.stuck blocked then begin
        List.iter (fun g -> g.g_cur <- g.g_cur + 1) blocked;
        rounds groups
      end
      else groups
    end
  in
  rounds [ group ~lo:0 ~hi:(nprocs - 1) ~cur:0 pay ]

let dist_elems_at part p =
  match (part.p_triplets, part.p_layout.Layout.dist_dim) with
  | Some tl, Some d when List.length tl > d ->
    Some (Iset.of_triplet (triplet_at (List.nth tl d) p))
  | _ -> None

let part_has_dist part =
  match (part.p_triplets, part.p_layout.Layout.dist_dim) with
  | Some tl, Some d -> List.length tl > d
  | _ -> false

(* Owned set in the distributed dimension, on demand (no O(P) array). *)
let owned_at (lay : Layout.t) ~n p =
  match lay.Layout.dist_dim with
  | None -> Iset.empty
  | Some _ -> Layout.owned_one lay ~nprocs:n p

(* ---------------------------------------------------------------------- *)

(* Parametric received sets: for pid p in [en_pids], the elements
   {en_slope * p + e | e in en_base} have been received.  Slope-0
   entries are collective deliveries (same elements everywhere); the
   merge rules keep one entry per communication pattern so a loop of 63
   broadcasts costs one entry, not 63 * P sets.  What one receiver gets
   by itself (a pid-at-a-time match) goes to its own set instead, so
   per-element traffic never lengthens the parametric list. *)
type rentry = { en_pids : Iset.t; en_slope : int; en_base : Iset.t }

type received = { mutable params : rentry list; at_pid : (int, Iset.t) Hashtbl.t }

(* What a queued message carries. *)
type sent = { parts : part list; sent_loc : Loc.t }

type st = {
  n : int;
  fuzzy : (int, unit) Hashtbl.t;  (* tags with unverifiable endpoints *)
  received : (string, received) Hashtbl.t;
  q : sent Replay.t;
  mutable findings : Finding.t list;
  redundant_seen : (Loc.t, unit) Hashtbl.t;
}

let add st ?loc ?proc ?tag ?site sev kind msg =
  st.findings <- Finding.make ?loc ?proc ?tag ?site sev kind msg :: st.findings

let received_of st array =
  match Hashtbl.find_opt st.received array with
  | Some r -> r
  | None ->
    let r = { params = []; at_pid = Hashtbl.create 8 } in
    Hashtbl.replace st.received array r;
    r

let add_received st array ~pids ~slope ~base =
  if not (Iset.is_empty pids || Iset.is_empty base) then begin
    let r = received_of st array in
    let rec ins = function
      | [] -> [ { en_pids = pids; en_slope = slope; en_base = base } ]
      | e :: rest when e.en_slope = slope && Iset.equal e.en_base base ->
        { e with en_pids = Iset.union e.en_pids pids } :: rest
      | e :: rest when e.en_slope = slope && Iset.equal e.en_pids pids ->
        { e with en_base = Iset.union e.en_base base } :: rest
      | e :: rest -> e :: ins rest
    in
    r.params <- ins r.params
  end

let add_received_at st array p elems =
  if not (Iset.is_empty elems) then begin
    let r = received_of st array in
    let old = Option.value ~default:Iset.empty (Hashtbl.find_opt r.at_pid p) in
    Hashtbl.replace r.at_pid p (Iset.union old elems)
  end

let received_at st array p =
  match Hashtbl.find_opt st.received array with
  | None -> Iset.empty
  | Some r ->
    List.fold_left
      (fun acc e ->
        if Iset.mem p e.en_pids then
          Iset.union acc (Iset.shift (e.en_slope * p) e.en_base)
        else acc)
      (Option.value ~default:Iset.empty (Hashtbl.find_opt r.at_pid p))
      r.params

(* --- sends ------------------------------------------------------------- *)

(* The pids p of [lo, hi] to which Block layout [lay] gives every element
   a part sends in the distributed dimension, taken at sender g(p).  For
   a section affine in the pid with one slope k and a constant step,
   elems(s) runs from k*s + first to k*s + last, and owned(p) is
   [L + b*p, min(H, L + b*p + b - 1)]; containment is three linear
   inequalities in p, so the answer is an interval ([Some None]: no
   pid).  [None]: the section or the layout is not of that form. *)
let owned_span part (lay : Layout.t) (g : aff) ~lo ~hi =
  match (part.p_triplets, part.p_layout.Layout.dist_dim, lay.Layout.dist_dim,
         lay.Layout.dist) with
  | Some tl, Some d, Some ld, Layout.Block b when List.length tl > d && b >= 1 -> (
    let lo_a, hi_a, st_a = List.nth tl d in
    match List.nth_opt lay.Layout.bounds ld with
    | Some (bl, bh) when lo_a.a = hi_a.a && st_a.a = 0 ->
      if st_a.b < 1 || lo_a.b > hi_a.b then Some (Some (lo, hi))  (* sends nothing *)
      else
        let last = lo_a.b + ((hi_a.b - lo_a.b) / st_a.b * st_a.b) in
        let ka = lo_a.a * g.a and kb = lo_a.a * g.b in
        Some
          (List.fold_left
             (fun span (k, c) ->
               Option.bind span (fun (l, u) -> Replay.halfline_le l u k c))
             (Some (lo, hi))
             [ (b - ka, bl - kb - lo_a.b);  (* first >= L + b*p *)
               (ka, kb + last - bh);  (* last <= H *)
               (ka - b, kb + last - bl - b + 1) (* last <= L + b*p + b - 1 *) ])
    | _ -> None)
  | _ -> None

let send_checks st ~plo ~phi loc tag parts =
  let check p part =
    match dist_elems_at part p with
    | Some elems ->
      let valid =
        Iset.union
          (owned_at part.p_layout ~n:st.n p)
          (received_at st part.p_array p)
      in
      if not (Iset.subset elems valid) then
        add st ~loc ~proc:p ~tag Finding.Error "send-unowned-data"
          (Fmt.str
             "p%d sends %s elements %s in the distributed dimension \
              that it neither owns nor has received"
             p part.p_array
             (Iset.to_string (Iset.diff elems valid)))
    | None -> ()
  in
  List.iter
    (fun part ->
      if part.p_triplets = None then Hashtbl.replace st.fuzzy tag ();
      if part_has_dist part then
        (* pids that own all they send need no check: loop over the rest *)
        match owned_span part part.p_layout { a = 1; b = 0 } ~lo:plo ~hi:phi with
        | Some (Some (l, u)) ->
          for p = plo to l - 1 do check p part done;
          for p = u + 1 to phi do check p part done
        | Some None | None ->
          for p = plo to phi do check p part done)
    parts

(* --- receive application ----------------------------------------------- *)

(* Reported once per receive statement, at the first receiver that
   owns every element it gets. *)
let redundant_recv st recv_loc p sdr tag =
  Hashtbl.replace st.redundant_seen recv_loc ();
  add st ~loc:recv_loc ~proc:p ~tag Finding.Warning "redundant-recv"
    (Fmt.str "p%d receives only elements it already owns (message from p%d)"
       p sdr)

let apply_recv_one st p recv_loc (arrays : recv_array list) (m : sent Replay.msg)
    sdr tag ~update =
  let all_known = ref true and all_owned = ref true and has_dist = ref false in
  List.iter
    (fun part ->
      match dist_elems_at part sdr with
      | Some elems -> (
        has_dist := true;
        match List.find_opt (fun ra -> ra.ra_name = part.p_array) arrays with
        | None ->
          all_owned := false;
          add st ~loc:m.payload.sent_loc ~proc:p ~tag Finding.Error
            "recv-unknown-array"
            (Fmt.str "message stores into %s, which is not visible at the \
                      receiving processor p%d" part.p_array p)
        | Some ra ->
          if not (Iset.subset elems (owned_at ra.ra_layout ~n:st.n p)) then
            all_owned := false;
          if update then add_received_at st part.p_array p elems)
      | None -> all_known := false)
    m.payload.parts;
  if !all_known && !has_dist && !all_owned
     && not (Hashtbl.mem st.redundant_seen recv_loc)
  then redundant_recv st recv_loc p sdr tag

(* Whole-interval receive: the received-set update is parametric when
   the sent section is affine with one slope (the overwhelmingly common
   case: each pid passes along a slice of its own block), and so is the
   redundant-receive check on Block layouts.  Anything else walks the
   pids, so diagnostics match the dense replay. *)
let apply_recv_group st ~lo ~hi recv_loc (arrays : recv_array list)
    (m : sent Replay.msg) (s : aff) tag =
  List.iter
    (fun part ->
      match (part.p_triplets, part.p_layout.Layout.dist_dim) with
      | Some tl, Some d when List.length tl > d -> (
        match List.find_opt (fun ra -> ra.ra_name = part.p_array) arrays with
        | None -> ()  (* flagged per pid below *)
        | Some _ ->
          let lo_a, hi_a, st_a = List.nth tl d in
          if lo_a.a = hi_a.a && st_a.a = 0 then begin
            (* elems(sender) = shift (k*sender) base and sender = s(p),
               so the delivery has slope k*s.a and base shifted k*s.b *)
            let k = lo_a.a in
            let base =
              triplet_at (aff_const lo_a.b, aff_const hi_a.b, st_a) 0
            in
            add_received st part.p_array ~pids:(Iset.range lo hi)
              ~slope:(k * s.a)
              ~base:(Iset.shift (k * s.b) (Iset.of_triplet base))
          end
          else
            for p = lo to hi do
              match dist_elems_at part (aff_at s p) with
              | Some elems -> add_received_at st part.p_array p elems
              | None -> ()
            done)
      | _ -> ())
    m.payload.parts;
  let parts = m.payload.parts in
  let per_pid () =
    for p = lo to hi do
      apply_recv_one st p recv_loc arrays m (aff_at s p) tag ~update:false
    done
  in
  let visible part = List.exists (fun ra -> ra.ra_name = part.p_array) arrays in
  if List.exists (fun part -> part_has_dist part && not (visible part)) parts then
    per_pid ()  (* recv-unknown-array, one per pid *)
  else if
    parts <> [] && List.for_all part_has_dist parts
    && not (Hashtbl.mem st.redundant_seen recv_loc)
  then begin
    (* the first receiver owning all it gets from every part *)
    let spans =
      List.map
        (fun part ->
          let ra = List.find (fun ra -> ra.ra_name = part.p_array) arrays in
          owned_span part ra.ra_layout s ~lo ~hi)
        parts
    in
    if List.mem None spans then per_pid ()
    else
      let first =
        List.fold_left
          (fun acc span ->
            match (acc, span) with
            | Some (l, u), Some (Some (l', u')) when max l l' <= min u u' ->
              Some (max l l', min u u')
            | _ -> None)
          (Some (lo, hi)) spans
      in
      Option.iter (fun (p, _) -> redundant_recv st recv_loc p (aff_at s p) tag) first
  end

(* --- collectives -------------------------------------------------------- *)

let apply_coll st (ev : event) =
  match ev.e_kind with
  | Ev_coll { root; payload; site; _ } -> (
    let loc = ev.e_loc in
    match payload with
    | Cp_scalar _ -> ()
    | Cp_remap { cr_array; _ } -> Hashtbl.remove st.received cr_array
    | Cp_section { cs_array; cs_triplets; cs_layout } -> (
      match (cs_triplets, cs_layout.Layout.dist_dim, root) with
      | Some tl, Some d, Some r when List.length tl > d ->
        let elems = Iset.of_triplet (List.nth tl d) in
        let valid =
          Iset.union (owned_at cs_layout ~n:st.n r) (received_at st cs_array r)
        in
        if not (Iset.subset elems valid) then
          add st ~loc ~proc:r ~site Finding.Error "bcast-unowned-data"
            (Fmt.str
               "broadcast root p%d sends %s elements %s it neither owns nor \
                has received"
               r cs_array
               (Iset.to_string (Iset.diff elems valid)));
        add_received st cs_array ~pids:(Iset.range 0 (st.n - 1)) ~slope:0
          ~base:elems
      | _ -> ()))
  | _ -> Diag.internal ~pass:"verify" "skeleton replay: unexpected event form"

(* --- deadlock reporting (mirrors Scheduler.wait_for_graph) ------------ *)

let find_cycle edges n =
  (* DFS cycle extraction, as in the dynamic scheduler. *)
  let state = Array.make n 0 in
  (* 0 white, 1 gray, 2 black *)
  let cycle = ref None in
  let rec dfs path p =
    if !cycle = None then
      match state.(p) with
      | 1 ->
        let rec upto acc = function
          | [] -> acc
          | q :: _ when q = p -> q :: acc
          | q :: rest -> upto (q :: acc) rest
        in
        cycle := Some (upto [] path)
      | 2 -> ()
      | _ ->
        state.(p) <- 1;
        List.iter (dfs (p :: path)) edges.(p);
        state.(p) <- 2
  in
  for p = 0 to n - 1 do
    if !cycle = None then dfs [] p
  done;
  !cycle

(* Expanding the wait-for graph per pid is how the dense replay reported
   deadlocks; keep that (texts included) up to 2048 processors and fall
   back to an interval description at ensemble scales. *)
let expand_limit = 2048

let report_quiescence st (evs : event array) (blocked_groups : unit group list) =
  let n = st.n in
  let all_fuzzy =
    blocked_groups <> []
    && List.for_all
         (fun g ->
           match evs.(g.g_cur).e_kind with
           | Ev_recv { tag; _ } -> Hashtbl.mem st.fuzzy tag
           | _ -> false)
         blocked_groups
  in
  let loc =
    match blocked_groups with
    | g :: _ -> evs.(g.g_cur).e_loc
    | [] -> Loc.none
  in
  let msg =
    if n <= expand_limit then begin
      let blocked =
        List.concat_map
          (fun g ->
            List.init (g.g_hi - g.g_lo + 1) (fun i -> (g.g_lo + i, g)))
          blocked_groups
      in
      let describe (p, g) =
        let ev = evs.(g.g_cur) in
        match ev.e_kind with
        | Ev_recv { src; tag; _ } ->
          Fmt.str "p%d waits on recv%s {tag %d}%s" p
            (match src with
            | Some s -> Fmt.str " from p%d" (aff_at s p)
            | None -> "")
            tag
            (if ev.e_loc <> Loc.none then Fmt.str " [%a]" Loc.pp ev.e_loc
             else "")
        | Ev_coll { site; label; _ } ->
          Fmt.str "p%d waits at collective site %d (%s)%s" p site label
            (if ev.e_loc <> Loc.none then Fmt.str " [%a]" Loc.pp ev.e_loc
             else "")
        | _ -> Fmt.str "p%d blocked" p
      in
      let blocked_tbl = Hashtbl.create 8 in
      List.iter (fun (p, g) -> Hashtbl.replace blocked_tbl p g) blocked;
      let edges = Array.make n [] in
      List.iter
        (fun (p, g) ->
          edges.(p) <-
            (match evs.(g.g_cur).e_kind with
            | Ev_recv { src = Some s; _ } ->
              let q = aff_at s p in
              if q >= 0 && q < n then [ q ] else []
            | Ev_recv { src = None; _ } ->
              List.filter (fun q -> q <> p) (List.init n Fun.id)
            | Ev_coll { id; _ } ->
              (* waits on every processor not parked at the same emission *)
              List.filter
                (fun q ->
                  q <> p
                  &&
                  match Hashtbl.find_opt blocked_tbl q with
                  | Some g' -> (
                    match evs.(g'.g_cur).e_kind with
                    | Ev_coll { id = id'; _ } -> id' <> id
                    | _ -> true)
                  | None -> true)
                (List.init n Fun.id)
            | _ -> []))
        blocked;
      let cycle_txt =
        match find_cycle edges n with
        | Some c ->
          Fmt.str "; wait cycle: %s"
            (String.concat " -> " (List.map (fun p -> Fmt.str "p%d" p) c))
        | None -> ""
      in
      Fmt.str "ensemble reaches quiescence with blocked processors: %s%s"
        (String.concat "; " (List.map describe blocked))
        cycle_txt
    end
    else begin
      let describe g =
        let span =
          if g.g_lo = g.g_hi then Fmt.str "p%d" g.g_lo
          else Fmt.str "p%d..p%d" g.g_lo g.g_hi
        in
        let ev = evs.(g.g_cur) in
        match ev.e_kind with
        | Ev_recv { src; tag; _ } ->
          Fmt.str "%s wait on recv%s {tag %d}%s" span
            (match src with
            | Some s -> Fmt.str " from %a" pp_aff s
            | None -> "")
            tag
            (if ev.e_loc <> Loc.none then Fmt.str " [%a]" Loc.pp ev.e_loc
             else "")
        | Ev_coll { site; label; _ } ->
          Fmt.str "%s wait at collective site %d (%s)" span site label
        | _ -> Fmt.str "%s blocked" span
      in
      Fmt.str "ensemble reaches quiescence with blocked processors: %s"
        (String.concat "; " (List.map describe blocked_groups))
    end
  in
  if all_fuzzy then
    add st ~loc Finding.Info "unverified-comm"
      (msg ^ " (all waits involve tags the analysis could not resolve)")
  else add st ~loc Finding.Error "static-deadlock" msg

(* ---------------------------------------------------------------------- *)

let run ~nprocs ?fuzzy_tags (events : event list) :
    Finding.t list =
  let st =
    {
      n = nprocs;
      fuzzy =
        (match fuzzy_tags with
        | Some t -> Hashtbl.copy t
        | None -> Hashtbl.create 8);
      received = Hashtbl.create 16;
      q = Replay.create ~nprocs;
      findings = [];
      redundant_seen = Hashtbl.create 8;
    }
  in
  (* Assumed deliveries apply up front: they only weaken later validity
     checks, which is the sound direction for an unverified region. *)
  let events =
    List.filter
      (fun ev ->
        match ev.e_kind with
        | Ev_assume { array; elems } ->
          add_received st array ~pids:(Iset.range 0 (nprocs - 1)) ~slope:0
            ~base:elems;
          false
        | _ -> true)
      events
  in
  let evs = Array.of_list events in
  let hooks =
    {
      same = (fun () () -> true);
      send =
        (fun g ~loc ~dest ~tag parts ->
          if dest = None then Hashtbl.replace st.fuzzy tag ();
          send_checks st ~plo:g.g_lo ~phi:g.g_hi loc tag parts;
          Replay.push st.q ~tag ~dest ~senders:(Iset.range g.g_lo g.g_hi)
            { parts; sent_loc = loc });
      recv_one =
        (fun g ~loc ~src ~tag arrays hit ->
          if src = None then Hashtbl.replace st.fuzzy tag ();
          Option.iter
            (fun (m, sdr) -> apply_recv_one st g.g_lo loc arrays m sdr tag ~update:true)
            hit);
      recv_group =
        (fun g ~loc ~tag arrays m s ->
          apply_recv_group st ~lo:g.g_lo ~hi:g.g_hi loc arrays m s tag;
          `Advance ());
      coll =
        (fun groups ev ->
          apply_coll st ev;
          List.map (fun g -> (g.g_lo, g.g_hi, ())) groups);
      stuck =
        (fun blocked ->
          report_quiescence st evs blocked;
          false);
    }
  in
  let groups = replay hooks st.q ~nprocs () evs in
  let deadlocked = List.exists (fun g -> g.g_cur < Array.length evs) groups in
  (* Undelivered messages: pure lint unless a deadlock already explains
     them (then they are consequences, not causes). *)
  if not deadlocked then begin
    let leftover = Hashtbl.create 8 in
    List.iter
      (fun (m : sent Replay.msg) ->
        let loc = m.payload.sent_loc in
        if not (Hashtbl.mem st.fuzzy m.tag || Hashtbl.mem leftover (m.tag, loc))
        then begin
          Hashtbl.replace leftover (m.tag, loc) ();
          let src = Option.value ~default:0 (Iset.min_elt m.senders) in
          add st ~loc ~proc:src ~tag:m.tag Finding.Warning "unmatched-send"
            (Fmt.str "message sent by p%d {tag %d} is never received" src m.tag)
        end)
      (Replay.live st.q)
  end;
  st.findings
