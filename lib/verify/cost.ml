(* Static communication-cost and critical-path analyzer (fdc cost).

   Input: the interval communication skeleton emitted by the abstract
   walk (Absint) plus the machine cost model (Config).  Output: the
   communication statistics a simulated run would report — per-processor
   and aggregate message counts and byte volumes, broadcast/remap
   traffic, and the virtual-time makespan of the communication DAG —
   computed without running the program, symbolically over pid
   intervals, so the analysis cost is flat in P.

   Fidelity contract (the differential oracle in test/test_cost.ml):

   - message/byte counters equal the simulator's Stats field-for-field
     on every fault-free example, because the counting mirrors the
     interpreter exactly: one message per executed N_send with bytes =
     (product of section triplet counts) * word_bytes; one bcast per
     collective with the root's full section; remap traffic from the
     same owner arithmetic the scheduler uses;
   - the predicted makespan equals the simulator's elapsed time under a
     compute-free cost model (flop = mem_op = 0), because the timed
     replay applies the scheduler's exact rules: a send advances the
     sender by alpha and arrives at sender_clock + beta*bytes; a receive
     advances to max(own, arrival) with per-(src, dest, tag) FIFO
     matching; a broadcast releases everyone at ensemble-max +
     bcast_cost; a remap releases each p at ensemble-max + its pairwise
     traffic cost.  Under the full cost model the prediction is a lower
     bound (compute time is not modelled).

   Statically-unresolved control flow (Absint regions) is resolved by a
   sequential branch profile: Seq_interp runs the source program once
   (P-independent) recording each source IF decision; sites whose
   profile is uniform are walked as decided.  Mixed or unprofiled sites
   stay regions, their communication is excluded from the totals, and
   the result is flagged approximate with an Info finding per
   assumption.

   The timed replay is the timing lens on Skeleton's group engine, the
   same one [fdc check] replays with: each pid-interval group carries an
   affine clock clock(p) = ca*p + cb, and the lens cuts a group where
   max(own, arrival) crosses inside it; the engine splits everywhere
   else lanes diverge (partial events, irregular or wildcard matches).
   Broadcasts re-merge the ensemble into one group, so the regular
   patterns stay O(events), independent of P. *)

open Fd_support
open Fd_machine

(* --- sequential branch profile ---------------------------------------- *)

type profile = (Loc.t, (int * int) ref) Hashtbl.t

let profile_of_seq (cp : Fd_frontend.Sema.checked_program) : profile =
  let tbl : profile = Hashtbl.create 16 in
  let on_branch loc taken =
    if loc <> Loc.none then begin
      let r =
        match Hashtbl.find_opt tbl loc with
        | Some r -> r
        | None ->
          let r = ref (0, 0) in
          Hashtbl.replace tbl loc r;
          r
      in
      let t, f = !r in
      r := if taken then (t + 1, f) else (t, f + 1)
    end
  in
  (* A sequential failure (runtime error in the reference interpreter)
     just yields a partial profile; the analysis degrades to regions. *)
  (try ignore (Seq_interp.run ~on_branch cp) with _ -> ());
  tbl

let oracle (p : profile) (loc : Loc.t) : bool option =
  if loc = Loc.none then None
  else
    match Hashtbl.find_opt p loc with
    | Some { contents = t, 0 } when t > 0 -> Some true
    | Some { contents = 0, f } when f > 0 -> Some false
    | _ -> None

let mixed_sites (p : profile) : (Loc.t * int * int) list =
  Hashtbl.fold
    (fun loc { contents = t, f } acc ->
      if t > 0 && f > 0 then (loc, t, f) :: acc else acc)
    p []
  |> List.sort compare

(* --- piecewise-affine per-processor accumulators ------------------------ *)

(* value(p) = a*p + b on [lo, hi]; pieces in an accumulator may overlap
   (contributions), the sweep canonicalizes them into disjoint runs. *)
type ipiece = { ip_lo : int; ip_hi : int; ip_a : int; ip_b : int }
type fpiece = { fp_lo : int; fp_hi : int; fp_a : float; fp_b : float }

let isum_piece { ip_lo = l; ip_hi = h; ip_a = a; ip_b = b } =
  (* sum_{p=l..h} (a*p + b); the triangular term in halves to dodge
     overflow on odd spans *)
  let n = h - l + 1 in
  let tri = if (l + h) mod 2 = 0 then (l + h) / 2 * n else n / 2 * (l + h) in
  (a * tri) + (b * n)

(* Delta sweep: O(k log k) in the number of contributions, flat in P.
   Neighbouring runs with equal coefficients merge, so the result is the
   canonical piece list of the per-pid function: it does not depend on
   how finely the replay cut its groups. *)
let sweep_int (contribs : ipiece list) : ipiece list =
  let deltas = Hashtbl.create 64 in
  let bump pos da db =
    let a, b = Option.value ~default:(0, 0) (Hashtbl.find_opt deltas pos) in
    Hashtbl.replace deltas pos (a + da, b + db)
  in
  List.iter
    (fun c ->
      bump c.ip_lo c.ip_a c.ip_b;
      bump (c.ip_hi + 1) (-c.ip_a) (-c.ip_b))
    contribs;
  let cuts = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) deltas []) in
  let rec go a b = function
    | [] | [ _ ] -> []
    | x :: (y :: _ as rest) -> (
      let da, db = Hashtbl.find deltas x in
      let a = a + da and b = b + db in
      if a = 0 && b = 0 then go a b rest
      else
        match go a b rest with
        | next :: more when next.ip_lo = y && next.ip_a = a && next.ip_b = b ->
          { next with ip_lo = x } :: more
        | pieces -> { ip_lo = x; ip_hi = y - 1; ip_a = a; ip_b = b } :: pieces)
  in
  go 0 0 cuts

let sweep_float (contribs : fpiece list) : fpiece list =
  let deltas = Hashtbl.create 64 in
  let bump pos da db =
    let a, b = Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt deltas pos) in
    Hashtbl.replace deltas pos (a +. da, b +. db)
  in
  List.iter
    (fun c ->
      bump c.fp_lo c.fp_a c.fp_b;
      bump (c.fp_hi + 1) (-.c.fp_a) (-.c.fp_b))
    contribs;
  let cuts = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) deltas []) in
  let rec go a b = function
    | [] | [ _ ] -> []
    | x :: (y :: _ as rest) -> (
      let da, db = Hashtbl.find deltas x in
      let a = a +. da and b = b +. db in
      if a = 0.0 && b = 0.0 then go a b rest
      else
        match go a b rest with
        | next :: more when next.fp_lo = y && next.fp_a = a && next.fp_b = b ->
          { next with fp_lo = x } :: more
        | pieces -> { fp_lo = x; fp_hi = y - 1; fp_a = a; fp_b = b } :: pieces)
  in
  go 0.0 0.0 cuts

(* --- symbolic message sizes -------------------------------------------- *)

(* Bytes per sender over [lo, hi] as disjoint affine pieces.  Exact:
   mirrors Interp's element gathering (product of triplet counts over
   ALL dimensions, summed over parts, times word_bytes).  Sections the
   affine forms cannot express (pid-dependent strides, two varying
   dimensions) fall back to per-pid evaluation coalesced into affine
   runs — still exact, O(interval width) only for the exotic event. *)

let part_elems_at (part : Skeleton.part) s =
  match part.Skeleton.p_triplets with
  | None -> None
  | Some tl ->
    Some
      (List.fold_left
         (fun acc tr -> acc * Triplet.count (Skeleton.triplet_at tr s))
         1 tl)

(* One part as [`Const of int | `Affine of int * int (* max(0, a*p+b) *)
   | `Opaque]. *)
let classify_part (part : Skeleton.part) =
  match part.Skeleton.p_triplets with
  | None -> `Unknown
  | Some tl ->
    let rec go const_prod affine tl =
      match tl with
      | [] -> (
        match affine with
        | None -> `Const const_prod
        | Some (a, b) -> `Affine (a * const_prod, b * const_prod))
      | (lo_a, hi_a, st_a) :: rest ->
        if st_a.Skeleton.a <> 0 || st_a.Skeleton.b < 1 then `Opaque
        else
          let s = st_a.Skeleton.b in
          let wa = hi_a.Skeleton.a - lo_a.Skeleton.a
          and wb = hi_a.Skeleton.b - lo_a.Skeleton.b in
          if wa = 0 then
            let cnt = if wb < 0 then 0 else (wb / s) + 1 in
            go (const_prod * cnt) affine rest
          else if s = 1 && affine = None then
            (* count(p) = max(0, wa*p + wb + 1) *)
            go const_prod (Some (wa, wb + 1)) rest
          else `Opaque
    in
    go 1 None tl

let coalesce_values ~lo values =
  (* values.(i) is the value at pid lo+i; produce maximal affine runs *)
  let n = Array.length values in
  let pieces = ref [] in
  let i = ref 0 in
  while !i < n do
    let start = !i in
    if !i = n - 1 then incr i
    else begin
      let d = values.(!i + 1) - values.(!i) in
      incr i;
      while !i < n - 1 && values.(!i + 1) - values.(!i) = d do
        incr i
      done;
      incr i
    end;
    let l = lo + start and h = lo + !i - 1 in
    let a = if h > l then (values.(!i - 1) - values.(start)) / (h - l) else 0 in
    let b = values.(start) - (a * l) in
    pieces := { ip_lo = l; ip_hi = h; ip_a = a; ip_b = b } :: !pieces
  done;
  List.rev !pieces

let bytes_pieces ~word ~lo ~hi (parts : Skeleton.part list) :
    ipiece list * bool =
  let unknown = ref false in
  let symbolic =
    List.map
      (fun part ->
        match classify_part part with
        | `Unknown ->
          unknown := true;
          Some (`Const 0)
        | `Const c -> Some (`Const c)
        | `Affine (a, b) -> Some (`Affine (a, b))
        | `Opaque -> None)
      parts
  in
  let pieces =
    if List.for_all Option.is_some symbolic then begin
      (* cut points: each affine part clamps to 0 where a*p + b <= 0 *)
      let cuts = ref [ lo; hi + 1 ] in
      List.iter
        (function
          | Some (`Affine (a, b)) when a <> 0 ->
            (* a*p + b = 0 at p = -b/a; the max(0, .) clamp flips in
               [floor(-b/a), floor(-b/a) + 1] *)
            let c1 = if a > 0 then Replay.fdiv (-b) a else Replay.fdiv b (-a) in
            List.iter
              (fun c -> if c > lo && c <= hi then cuts := c :: !cuts)
              [ c1; c1 + 1 ]
          | _ -> ())
        symbolic;
      let cuts = List.sort_uniq compare !cuts in
      let rec segs = function
        | [] | [ _ ] -> []
        | x :: (y :: _ as rest) -> (x, y - 1) :: segs rest
      in
      List.map
        (fun (l, h) ->
          (* within a segment every affine part keeps its clamp sign *)
          let a, b =
            List.fold_left
              (fun (a, b) part ->
                match part with
                | Some (`Const c) -> (a, b + c)
                | Some (`Affine (pa, pb)) ->
                  if (pa * l) + pb <= 0 && (pa * h) + pb <= 0 then (a, b)
                  else (a + pa, b + pb)
                | None -> (a, b))
              (0, 0) symbolic
          in
          { ip_lo = l; ip_hi = h; ip_a = a * word; ip_b = b * word })
        (segs cuts)
    end
    else begin
      (* exotic section: evaluate per pid, coalesce into affine runs *)
      let values =
        Array.init (hi - lo + 1) (fun i ->
            let s = lo + i in
            List.fold_left
              (fun acc part ->
                match part_elems_at part s with
                | Some e -> acc + (e * word)
                | None ->
                  unknown := true;
                  acc)
              0 parts)
      in
      coalesce_values ~lo values
    end
  in
  (pieces, !unknown)

(* --- critical-path nodes ------------------------------------------------ *)

type step = {
  st_what : string;
  st_loc : Loc.t;
  st_plo : int;
  st_phi : int;
  st_time : float;  (* completion time (seconds, virtual) *)
}

type node = {
  nd_what : string;
  nd_loc : Loc.t;
  nd_plo : int;
  nd_phi : int;
  nd_time : float;
  nd_pred : node option;
}

(* --- the timed lens ------------------------------------------------------ *)

(* What a queued message carries: arrival(s) = arr_a*s + arr_b for
   sender s, and the send on the critical path. *)
type arrival = { arr_a : float; arr_b : float; arr_node : node }

(* A group's payload: clock(p) = ca*p + cb over its pids, and the last
   critical-path node it completed.  Immutable, so a split shares it. *)
type clock = { ca : float; cb : float; last : node option }

type site_acc = {
  mutable sa_messages : int;
  mutable sa_bytes : int;
  mutable sa_bcasts : int;
  mutable sa_remaps : int;
  mutable sa_seconds : float;
  sa_insts : (int, unit) Hashtbl.t;  (* distinct event indexes *)
  mutable sa_max_msg : int;  (* largest single message, bytes *)
}

type st = {
  n : int;
  cfg : Config.t;
  q : arrival Replay.t;
  (* totals, mirroring Stats *)
  mutable messages : int;
  mutable message_bytes : int;
  mutable bcasts : int;
  mutable bcast_bytes : int;
  mutable remaps : int;
  mutable remap_marks : int;
  mutable remap_bytes : int;
  (* per-processor contributions *)
  mutable c_msgs : ipiece list;
  mutable c_bytes : ipiece list;
  mutable c_send : fpiece list;  (* alpha startup charged to senders *)
  mutable c_wait : fpiece list;  (* receive waits *)
  mutable c_coll : fpiece list;  (* collective barrier + transfer waits *)
  sites : (Loc.t * string, site_acc) Hashtbl.t;
  mutable notes : string list;  (* cost-model assumptions, deduped *)
  counted_colls : (int, unit) Hashtbl.t;
}

let clock_at c p = (c.ca *. float_of_int p) +. c.cb

let group_max_clock (g : clock Skeleton.group) =
  Float.max (clock_at g.g_pay g.g_lo) (clock_at g.g_pay g.g_hi)

let note st msg = if not (List.mem msg st.notes) then st.notes <- msg :: st.notes

let at loc = if loc <> Loc.none then Fmt.str " at %a" Loc.pp loc else ""

let site st loc what =
  match Hashtbl.find_opt st.sites (loc, what) with
  | Some s -> s
  | None ->
    let s =
      { sa_messages = 0; sa_bytes = 0; sa_bcasts = 0; sa_remaps = 0;
        sa_seconds = 0.0; sa_insts = Hashtbl.create 4; sa_max_msg = 0 }
    in
    Hashtbl.replace st.sites (loc, what) s;
    s

(* --- event processing --------------------------------------------------- *)

let process_send st (g : clock Skeleton.group) ~loc ~dest ~tag parts =
  let alpha = st.cfg.Config.alpha and beta = st.cfg.Config.beta in
  let lo = g.g_lo and hi = g.g_hi in
  let c = { g.g_pay with cb = g.g_pay.cb +. alpha } in
  let n = hi - lo + 1 in
  st.messages <- st.messages + n;
  st.c_msgs <- { ip_lo = lo; ip_hi = hi; ip_a = 0; ip_b = 1 } :: st.c_msgs;
  st.c_send <-
    { fp_lo = lo; fp_hi = hi; fp_a = 0.0; fp_b = alpha } :: st.c_send;
  let pieces, unknown =
    bytes_pieces ~word:st.cfg.Config.word_bytes ~lo ~hi parts
  in
  if unknown then
    note st
      (Fmt.str "send%s: payload size not statically evaluable; counted as 0 bytes"
         (at loc));
  if dest = None then
    note st
      (Fmt.str "send%s: destination not statically evaluable; matched first-fit"
         (at loc));
  let sa = site st loc "send" in
  Hashtbl.replace sa.sa_insts g.g_cur ();
  sa.sa_messages <- sa.sa_messages + n;
  List.fold_left
    (fun c piece ->
      let l = piece.ip_lo and h = piece.ip_hi in
      let total = isum_piece piece in
      st.message_bytes <- st.message_bytes + total;
      st.c_bytes <- piece :: st.c_bytes;
      sa.sa_bytes <- sa.sa_bytes + total;
      sa.sa_max_msg <-
        max sa.sa_max_msg
          (max
             ((piece.ip_a * l) + piece.ip_b)
             ((piece.ip_a * h) + piece.ip_b));
      let nd =
        { nd_what = "send"; nd_loc = loc; nd_plo = l; nd_phi = h;
          nd_time = Float.max (clock_at c l) (clock_at c h); nd_pred = c.last }
      in
      Replay.push st.q ~tag ~dest ~senders:(Iset.range l h)
        { arr_a = c.ca +. (beta *. float_of_int piece.ip_a);
          arr_b = c.cb +. (beta *. float_of_int piece.ip_b);
          arr_node = nd };
      { c with last = Some nd })
    c pieces

let recv_one st (g : clock Skeleton.group) ~loc ~src ~tag:_ _ hit =
  if src = None then
    note st
      (Fmt.str "recv%s: source not statically evaluable; matched first-fit"
         (at loc));
  match hit with
  | Some ((m : arrival Replay.msg), sdr) ->
    let p = g.g_lo in
    let own = clock_at g.g_pay p in
    let arr = (m.payload.arr_a *. float_of_int sdr) +. m.payload.arr_b in
    if arr > own then begin
      st.c_wait <-
        { fp_lo = p; fp_hi = p; fp_a = 0.0; fp_b = arr -. own } :: st.c_wait;
      { ca = 0.0; cb = arr;
        last =
          Some
            { nd_what = "recv"; nd_loc = loc; nd_plo = p; nd_phi = p;
              nd_time = arr; nd_pred = Some m.payload.arr_node } }
    end
    else g.g_pay
  | None -> g.g_pay

(* Binary search: the affine sign function d(r) = da*r + db changes sign
   at most once on [lo, hi]; return the first r whose sign differs from
   d(lo)'s.  Assumes d(lo) and d(hi) disagree. *)
let crossing ~lo ~hi da db =
  let pos r = (da *. float_of_int r) +. db > 0.0 in
  let s0 = pos lo in
  let a = ref lo and b = ref hi in
  while !b - !a > 1 do
    let m = !a + ((!b - !a) / 2) in
    if pos m = s0 then a := m else b := m
  done;
  !b

let recv_group st (g : clock Skeleton.group) ~loc ~tag:_ _ (m : arrival Replay.msg)
    (s : Skeleton.aff) =
  let lo = g.g_lo and hi = g.g_hi and c = g.g_pay in
  let { arr_a = aa; arr_b = ab; arr_node } = m.payload in
  (* arrival(r) = aa*(s.a*r + s.b) + ab *)
  let arr =
    { ca = aa *. float_of_int s.a; cb = (aa *. float_of_int s.b) +. ab; last = None }
  in
  let da = arr.ca -. c.ca and db = arr.cb -. c.cb in
  let d r = (da *. float_of_int r) +. db in
  let dlo = d lo and dhi = d hi in
  if dlo > 0.0 <> (dhi > 0.0) then
    (* max(own, arrival) crosses inside the interval: split first,
       each piece re-matches uniformly *)
    `Cut (crossing ~lo ~hi da db)
  else if dlo > 0.0 || dhi > 0.0 then begin
    (* arrival wins (ties included where one endpoint is 0) *)
    st.c_wait <- { fp_lo = lo; fp_hi = hi; fp_a = da; fp_b = db } :: st.c_wait;
    `Advance
      { arr with
        last =
          Some
            { nd_what = "recv"; nd_loc = loc; nd_plo = lo; nd_phi = hi;
              nd_time = Float.max (clock_at arr lo) (clock_at arr hi);
              nd_pred = Some arr_node } }
  end
  else `Advance c

(* --- collectives -------------------------------------------------------- *)

let payload_bytes st (payload : Skeleton.coll_payload) : int option =
  match payload with
  | Skeleton.Cp_scalar _ -> Some st.cfg.Config.word_bytes
  | Skeleton.Cp_section { cs_triplets = Some tl; _ } ->
    Some
      (List.fold_left (fun acc tr -> acc * Triplet.count tr) 1 tl
      * st.cfg.Config.word_bytes)
  | Skeleton.Cp_section { cs_triplets = None; _ } -> None
  | Skeleton.Cp_remap _ -> None

(* Remap traffic from the same ownership arithmetic the scheduler uses,
   without the per-element-per-processor loop: O(dist extents + P). *)
let remap_traffic ~nprocs ~word (old_l : Layout.t) (new_l : Layout.t) =
  let sent = Array.make nprocs 0
  and received = Array.make nprocs 0
  and npairs = Array.make nprocs 0 in
  let bounds = old_l.Layout.bounds in
  let total_elems =
    List.fold_left (fun acc be -> acc * Layout.extent be) 1 bounds
  in
  (match (old_l.Layout.dist_dim, new_l.Layout.dist_dim) with
  | None, _ -> ()  (* everything was replicated: every p already had it *)
  | Some d_old, None ->
    (* to replicated: every p needs every element; had only its own *)
    let blo, bhi = List.nth bounds d_old in
    let row = total_elems / (bhi - blo + 1) in
    let owned_elems = Array.make nprocs 0 in
    for i = blo to bhi do
      let q = Layout.owner_of old_l ~nprocs i in
      owned_elems.(q) <- owned_elems.(q) + row
    done;
    let owners = ref 0 in
    Array.iter (fun c -> if c > 0 then incr owners) owned_elems;
    for p = 0 to nprocs - 1 do
      if owned_elems.(p) > 0 then begin
        sent.(p) <- owned_elems.(p) * (nprocs - 1) * word;
        npairs.(p) <- npairs.(p) + (nprocs - 1)
      end;
      received.(p) <- (total_elems - owned_elems.(p)) * word;
      npairs.(p) <-
        npairs.(p) + !owners - (if owned_elems.(p) > 0 then 1 else 0)
    done
  | Some d_old, Some d_new when d_old = d_new ->
    let blo, bhi = List.nth bounds d_old in
    let row = total_elems / (bhi - blo + 1) in
    let partners = Hashtbl.create 16 in
    for i = blo to bhi do
      let q = Layout.owner_of old_l ~nprocs i in
      let r = Layout.owner_of new_l ~nprocs i in
      if q <> r then begin
        sent.(q) <- sent.(q) + (row * word);
        received.(r) <- received.(r) + (row * word);
        Hashtbl.replace partners (q, r) ()
      end
    done;
    Hashtbl.iter
      (fun (q, r) () ->
        npairs.(q) <- npairs.(q) + 1;
        npairs.(r) <- npairs.(r) + 1)
      partners
  | Some d_old, Some d_new ->
    let olo, ohi = List.nth bounds d_old in
    let nlo, nhi = List.nth bounds d_new in
    let row = total_elems / ((ohi - olo + 1) * (nhi - nlo + 1)) in
    let partners = Hashtbl.create 16 in
    for i = olo to ohi do
      let q = Layout.owner_of old_l ~nprocs i in
      for j = nlo to nhi do
        let r = Layout.owner_of new_l ~nprocs j in
        if q <> r then begin
          sent.(q) <- sent.(q) + (row * word);
          received.(r) <- received.(r) + (row * word);
          Hashtbl.replace partners (q, r) ()
        end
      done
    done;
    Hashtbl.iter
      (fun (q, r) () ->
        npairs.(q) <- npairs.(q) + 1;
        npairs.(r) <- npairs.(r) + 1)
      partners);
  (sent, received, npairs, Array.fold_left ( + ) 0 sent)

let apply_timed_coll st (groups : clock Skeleton.group list) (ev : Skeleton.event) =
  match ev.Skeleton.e_kind with
  | Skeleton.Ev_coll { id; site = _; label; root = _; payload } -> (
    let loc = ev.Skeleton.e_loc in
    let counted = Hashtbl.mem st.counted_colls id in
    Hashtbl.replace st.counted_colls id ();
    let tmax =
      List.fold_left (fun acc g -> Float.max acc (group_max_clock g)) 0.0 groups
    in
    let arg = List.find_opt (fun g -> group_max_clock g = tmax) groups in
    let pred = Option.bind arg (fun g -> g.Skeleton.g_pay.last) in
    (* everyone leaves at [release], after node [nd] *)
    let release_all release nd =
      List.map
        (fun (g : clock Skeleton.group) ->
          st.c_coll <-
            { fp_lo = g.g_lo; fp_hi = g.g_hi; fp_a = -.g.g_pay.ca;
              fp_b = release -. g.g_pay.cb }
            :: st.c_coll;
          (g.g_lo, g.g_hi, { ca = 0.0; cb = release; last = Some nd }))
        groups
    in
    match payload with
    | Skeleton.Cp_scalar _ | Skeleton.Cp_section _ ->
      let bytes =
        match payload_bytes st payload with
        | Some b -> b
        | None ->
          note st
            (Fmt.str "broadcast %s%s: payload size not statically evaluable; \
                      counted as 0 bytes" label (at loc));
          0
      in
      if not counted then begin
        st.bcasts <- st.bcasts + 1;
        st.bcast_bytes <- st.bcast_bytes + bytes
      end;
      let cost = Config.bcast_cost st.cfg bytes in
      let release = tmax +. cost in
      let after =
        release_all release
          { nd_what = "bcast " ^ label; nd_loc = loc; nd_plo = 0;
            nd_phi = st.n - 1; nd_time = release; nd_pred = pred }
      in
      let sa = site st loc "bcast" in
      sa.sa_bcasts <- sa.sa_bcasts + 1;
      sa.sa_bytes <- sa.sa_bytes + bytes;
      sa.sa_seconds <- sa.sa_seconds +. cost;
      after
    | Skeleton.Cp_remap { cr_array; cr_move = false; _ } ->
      if not counted then st.remap_marks <- st.remap_marks + 1;
      release_all tmax
        { nd_what = "remap (mark) " ^ cr_array; nd_loc = loc; nd_plo = 0;
          nd_phi = st.n - 1; nd_time = tmax; nd_pred = pred }
    | Skeleton.Cp_remap { cr_array; cr_old; cr_new; cr_move = true } ->
      let sent, received, npairs, total =
        remap_traffic ~nprocs:st.n ~word:st.cfg.Config.word_bytes cr_old cr_new
      in
      if not counted then begin
        st.remaps <- st.remaps + 1;
        st.remap_bytes <- st.remap_bytes + total
      end;
      let cost p =
        (float_of_int npairs.(p) *. st.cfg.Config.alpha)
        +. (st.cfg.Config.beta *. float_of_int (sent.(p) + received.(p)))
      in
      (* runs of equal per-pid cost; each leaves as one group *)
      let rec runs p =
        if p >= st.n then []
        else begin
          let c = cost p in
          let q = ref p in
          while !q + 1 < st.n && cost (!q + 1) = c do
            incr q
          done;
          (p, !q, c) :: runs (!q + 1)
        end
      in
      let runs = runs 0 in
      let maxrel =
        List.fold_left (fun acc (_, _, c) -> Float.max acc (tmax +. c)) tmax runs
      in
      let nd =
        { nd_what = "remap " ^ cr_array; nd_loc = loc; nd_plo = 0;
          nd_phi = st.n - 1; nd_time = maxrel; nd_pred = pred }
      in
      (* collective wait per p = release(p) - clock(p): one piece where a
         run meets a group whose clock is uniform, else one per pid;
         groups and runs are both in pid order *)
      let wait (g : clock Skeleton.group) c l h =
        if g.g_pay.ca = 0.0 then
          st.c_coll <-
            { fp_lo = l; fp_hi = h; fp_a = 0.0;
              fp_b = tmax +. c -. clock_at g.g_pay l }
            :: st.c_coll
        else
          for p = l to h do
            st.c_coll <-
              { fp_lo = p; fp_hi = p; fp_a = 0.0;
                fp_b = tmax +. c -. clock_at g.g_pay p }
              :: st.c_coll
          done
      in
      let rec waits groups runs =
        match (groups, runs) with
        | [], _ | _, [] -> ()
        | (g : clock Skeleton.group) :: gs, (l, h, c) :: rs ->
          if h < g.g_lo then waits groups rs
          else if l > g.g_hi then waits gs runs
          else begin
            wait g c (max l g.g_lo) (min h g.g_hi);
            if h <= g.g_hi then waits groups rs else waits gs runs
          end
      in
      waits groups runs;
      let sa = site st loc "remap" in
      sa.sa_remaps <- sa.sa_remaps + 1;
      sa.sa_bytes <- sa.sa_bytes + total;
      sa.sa_seconds <- sa.sa_seconds +. (maxrel -. tmax);
      List.map (fun (l, h, c) -> (l, h, { ca = 0.0; cb = tmax +. c; last = Some nd })) runs)
  | _ -> Diag.internal ~pass:"cost" "timed collective on a non-collective event"

(* Quiescence with unfinished processors: the program would deadlock
   dynamically.  Force past the blockage so the totals still cover every
   event, and flag the prediction. *)
let force_past st (evs : Skeleton.event array) blocked =
  note st
    "replay reached quiescence before all events completed (blocked \
     receive or incomplete collective); remaining events priced without \
     waits";
  List.iter
    (fun (g : clock Skeleton.group) ->
      match evs.(g.g_cur).Skeleton.e_kind with
      | Skeleton.Ev_coll { id; payload; _ }
        when not (Hashtbl.mem st.counted_colls id) -> (
        Hashtbl.replace st.counted_colls id ();
        match payload with
        | Skeleton.Cp_scalar _ | Skeleton.Cp_section _ ->
          st.bcasts <- st.bcasts + 1;
          st.bcast_bytes <-
            st.bcast_bytes + Option.value ~default:0 (payload_bytes st payload)
        | Skeleton.Cp_remap { cr_move; _ } ->
          if cr_move then st.remaps <- st.remaps + 1
          else st.remap_marks <- st.remap_marks + 1)
      | _ -> ())
    blocked;
  true

(* --- results ------------------------------------------------------------ *)

type site_cost = {
  site_loc : Loc.t;
  site_what : string;  (* "send" | "bcast" | "remap" *)
  site_messages : int;
  site_bytes : int;
  site_bcasts : int;
  site_remaps : int;
  site_seconds : float;
}

type t = {
  nprocs : int;
  messages : int;
  message_bytes : int;
  bcasts : int;
  bcast_bytes : int;
  remaps : int;
  remap_marks : int;
  remap_bytes : int;
  makespan : float;
  exact : bool;
  assumptions : string list;
  per_proc_messages : ipiece list;
  per_proc_bytes : ipiece list;
  send_seconds : fpiece list;
  wait_seconds : fpiece list;
  coll_seconds : fpiece list;
  critical_path : step list;
  sites : site_cost list;
  findings : Finding.t list;
  events : int;
  regions_excluded : int;
  profile_used : bool;
}

let comm_ops t = t.messages + t.bcasts + t.remaps + t.remap_marks

let region_has_comm (rg : Absint.region) =
  List.exists
    (fun (ev : Skeleton.event) ->
      match ev.Skeleton.e_kind with
      | Skeleton.Ev_send _ | Skeleton.Ev_recv _ | Skeleton.Ev_coll _ -> true
      | Skeleton.Ev_assume _ -> false)
    (rg.Absint.rg_then @ rg.Absint.rg_else)

let analyze ?profile:prof ~(config : Config.t) (prog : Node.program) : t =
  let nprocs = config.Config.nprocs in
  let branch_oracle = Option.map oracle prof in
  let r = Absint.walk ?branch_oracle ~nprocs prog in
  let st =
    { n = nprocs; cfg = config; q = Replay.create (); messages = 0; message_bytes = 0;
      bcasts = 0; bcast_bytes = 0; remaps = 0; remap_marks = 0;
      remap_bytes = 0; c_msgs = []; c_bytes = []; c_send = []; c_wait = [];
      c_coll = []; sites = Hashtbl.create 16; notes = [];
      counted_colls = Hashtbl.create 16 }
  in
  if not r.Absint.complete then
    note st
      "the abstract walk did not cover the whole program (budget or \
       invalid node program); totals cover the analysed prefix only";
  let comm_regions =
    List.filter region_has_comm r.Absint.regions |> List.length
  in
  if comm_regions > 0 then
    note st
      (Fmt.str
         "communication inside %d statically-unresolved region%s is \
          excluded from the totals"
         comm_regions
         (if comm_regions = 1 then "" else "s"));
  (match prof with
  | Some p ->
    let comm_locs =
      List.filter_map
        (fun rg ->
          if region_has_comm rg then Some rg.Absint.rg_if_loc else None)
        r.Absint.regions
    in
    List.iter
      (fun (loc, tcnt, fcnt) ->
        if List.mem loc comm_locs then
          note st
            (Fmt.str
               "IF at %a took both branches sequentially (%d true, %d \
                false); its communication is excluded"
               Loc.pp loc tcnt fcnt))
      (mixed_sites p)
  | None -> ());
  let evs = Array.of_list r.Absint.events in
  let groups =
    Skeleton.replay
      { Skeleton.same = (fun a b -> a.ca = b.ca && a.cb = b.cb);
        send = process_send st; recv_one = recv_one st; recv_group = recv_group st;
        coll = apply_timed_coll st; stuck = force_past st evs }
      st.q ~nprocs { ca = 0.0; cb = 0.0; last = None } evs
  in
  let makespan =
    List.fold_left (fun acc g -> Float.max acc (group_max_clock g)) 0.0 groups
  in
  (* critical path: predecessor chain from a processor achieving the
     makespan *)
  let critical_path =
    let last =
      List.find_opt (fun g -> group_max_clock g = makespan) groups
      |> Fun.flip Option.bind (fun (g : clock Skeleton.group) -> g.g_pay.last)
    in
    let rec chain acc = function
      | None -> acc
      | Some nd ->
        chain
          ({ st_what = nd.nd_what; st_loc = nd.nd_loc; st_plo = nd.nd_plo;
             st_phi = nd.nd_phi; st_time = nd.nd_time }
          :: acc)
          nd.nd_pred
    in
    chain [] last
  in
  let sites =
    Hashtbl.fold
      (fun (loc, what) sa acc ->
        (* a send site's seconds come from its integer counts, so they
           do not depend on how the replay cut its groups *)
        let seconds =
          if what = "send" then
            (float_of_int sa.sa_messages *. config.Config.alpha)
            +. (config.Config.beta *. float_of_int sa.sa_bytes)
          else sa.sa_seconds
        in
        { site_loc = loc; site_what = what; site_messages = sa.sa_messages;
          site_bytes = sa.sa_bytes; site_bcasts = sa.sa_bcasts;
          site_remaps = sa.sa_remaps; site_seconds = seconds }
        :: acc)
      st.sites []
    |> List.sort (fun a b -> compare b.site_seconds a.site_seconds)
  in
  (* findings: provably-unvectorized per-element sends, plus one Info
     per cost-model assumption *)
  let findings = ref [] in
  Hashtbl.iter
    (fun (loc, what) sa ->
      if
        what = "send"
        && Hashtbl.length sa.sa_insts >= 4
        && sa.sa_max_msg <= config.Config.word_bytes
        && sa.sa_messages > 0
      then
        findings :=
          Finding.make ~loc Finding.Warning "unvectorized-comm"
            (Fmt.str
               "%d per-element messages (each <= 1 element) sent from this \
                statement: message vectorization did not apply"
               (Hashtbl.length sa.sa_insts))
          :: !findings)
    st.sites;
  List.iter
    (fun msg ->
      findings :=
        Finding.make Finding.Info "cost-assumption" msg :: !findings)
    st.notes;
  {
    nprocs;
    messages = st.messages;
    message_bytes = st.message_bytes;
    bcasts = st.bcasts;
    bcast_bytes = st.bcast_bytes;
    remaps = st.remaps;
    remap_marks = st.remap_marks;
    remap_bytes = st.remap_bytes;
    makespan;
    exact = (st.notes = []);
    assumptions = List.rev st.notes;
    per_proc_messages = sweep_int st.c_msgs;
    per_proc_bytes = sweep_int st.c_bytes;
    send_seconds = sweep_float st.c_send;
    wait_seconds = sweep_float st.c_wait;
    coll_seconds = sweep_float st.c_coll;
    critical_path;
    sites;
    findings = Finding.sort !findings;
    events = List.length r.Absint.events;
    regions_excluded = comm_regions;
    profile_used = prof <> None;
  }

(* --- per-processor queries ---------------------------------------------- *)

(* --- serialization ------------------------------------------------------ *)

let ipieces_json ps =
  Json.List
    (List.map
       (fun c ->
         Json.Obj
           [ ("lo", Json.Int c.ip_lo); ("hi", Json.Int c.ip_hi);
             ("a", Json.Int c.ip_a); ("b", Json.Int c.ip_b) ])
       ps)

let fpieces_json ps =
  Json.List
    (List.map
       (fun c ->
         Json.Obj
           [ ("lo", Json.Int c.fp_lo); ("hi", Json.Int c.fp_hi);
             ("a", Json.Float c.fp_a); ("b", Json.Float c.fp_b) ])
       ps)

let loc_json (loc : Loc.t) =
  if loc = Loc.none then Json.Null
  else
    Json.Obj
      [ ("file", Json.Str loc.Loc.file); ("line", Json.Int loc.Loc.line);
        ("col", Json.Int loc.Loc.col) ]

let to_json t =
  Json.Obj
    [
      ("nprocs", Json.Int t.nprocs);
      ("messages", Json.Int t.messages);
      ("message_bytes", Json.Int t.message_bytes);
      ("bcasts", Json.Int t.bcasts);
      ("bcast_bytes", Json.Int t.bcast_bytes);
      ("remaps", Json.Int t.remaps);
      ("remap_marks", Json.Int t.remap_marks);
      ("remap_bytes", Json.Int t.remap_bytes);
      ("comm_ops", Json.Int (comm_ops t));
      ("predicted_elapsed_seconds", Json.Float t.makespan);
      ("exact", Json.Bool t.exact);
      ("assumptions", Json.List (List.map (fun s -> Json.Str s) t.assumptions));
      ("per_proc_messages", ipieces_json t.per_proc_messages);
      ("per_proc_bytes", ipieces_json t.per_proc_bytes);
      ("send_seconds", fpieces_json t.send_seconds);
      ("wait_seconds", fpieces_json t.wait_seconds);
      ("coll_seconds", fpieces_json t.coll_seconds);
      ( "critical_path",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [ ("what", Json.Str s.st_what); ("loc", loc_json s.st_loc);
                   ("plo", Json.Int s.st_plo); ("phi", Json.Int s.st_phi);
                   ("seconds", Json.Float s.st_time) ])
             t.critical_path) );
      ( "sites",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [ ("loc", loc_json s.site_loc);
                   ("what", Json.Str s.site_what);
                   ("messages", Json.Int s.site_messages);
                   ("bytes", Json.Int s.site_bytes);
                   ("bcasts", Json.Int s.site_bcasts);
                   ("remaps", Json.Int s.site_remaps);
                   ("seconds", Json.Float s.site_seconds) ])
             t.sites) );
      ("events", Json.Int t.events);
      ("regions_excluded", Json.Int t.regions_excluded);
      ("profile_used", Json.Bool t.profile_used);
    ]

let us s = s *. 1e6

let pp_pieces_int ppf ps =
  let pp_one ppf c =
    if c.ip_lo = c.ip_hi then
      Fmt.pf ppf "p%d: %d" c.ip_lo ((c.ip_a * c.ip_lo) + c.ip_b)
    else if c.ip_a = 0 then
      Fmt.pf ppf "p%d..p%d: %d" c.ip_lo c.ip_hi c.ip_b
    else
      Fmt.pf ppf "p%d..p%d: %d*p%+d" c.ip_lo c.ip_hi c.ip_a c.ip_b
  in
  Fmt.pf ppf "%a" (Fmt.list ~sep:(Fmt.any ", ") pp_one) ps

let pp ppf t =
  Fmt.pf ppf "predicted communication cost for P=%d:@," t.nprocs;
  Fmt.pf ppf "  messages      %d (%d bytes)@," t.messages t.message_bytes;
  Fmt.pf ppf "  bcasts        %d (%d bytes)@," t.bcasts t.bcast_bytes;
  Fmt.pf ppf "  remaps        %d physical (%d bytes), %d mark-only@,"
    t.remaps t.remap_bytes t.remap_marks;
  Fmt.pf ppf "  makespan      %.1fus%s@," (us t.makespan)
    (if t.exact then "" else " (approximate)");
  if t.per_proc_messages <> [] then
    Fmt.pf ppf "  msgs/proc     %a@," pp_pieces_int t.per_proc_messages;
  if t.per_proc_bytes <> [] then
    Fmt.pf ppf "  bytes/proc    %a@," pp_pieces_int t.per_proc_bytes;
  List.iter (fun a -> Fmt.pf ppf "  assumption    %s@," a) t.assumptions

let pp_critical_path ppf t =
  if t.critical_path = [] then
    Fmt.pf ppf "critical path: empty (no timed communication)@,"
  else begin
    Fmt.pf ppf "critical path (%d events to t=%.1fus):@,"
      (List.length t.critical_path) (us t.makespan);
    List.iter
      (fun s ->
        Fmt.pf ppf "  %8.1fus  %s %s%s@," (us s.st_time)
          (if s.st_plo = s.st_phi then Fmt.str "p%d" s.st_plo
           else Fmt.str "p%d..p%d" s.st_plo s.st_phi)
          s.st_what
          (if s.st_loc <> Loc.none then Fmt.str "  [%a]" Loc.pp s.st_loc
           else ""))
      t.critical_path
  end

let pp_sites ppf t =
  if t.sites = [] then Fmt.pf ppf "no communication sites@,"
  else begin
    Fmt.pf ppf "per-site communication cost (most expensive first):@,";
    List.iter
      (fun s ->
        Fmt.pf ppf "  %8.1fus  %-5s %6d msgs %8d bytes  %s@,"
          (us s.site_seconds) s.site_what
          (s.site_messages + s.site_bcasts + s.site_remaps)
          s.site_bytes
          (if s.site_loc <> Loc.none then Fmt.str "%a" Loc.pp s.site_loc
           else "<generated>"))
      t.sites
  end
