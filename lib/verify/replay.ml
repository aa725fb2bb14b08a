(* The message half of the interval replay, shared by the verifier
   (Skeleton, [fdc check]) and the cost analyzer (Cost, [fdc cost]).

   Sends queue one message per (event, sender interval): its destination
   is an affine form of the sender pid and [senders] shrinks as receivers
   consume their copies.  Messages live in one queue per tag, in emission
   order, so a receive scans only its own tag.  A message whose sender
   set is empty can never match again — it gives [Known Iset.empty] in
   [matched_set], fails every predicate of [match_one] and the
   unmatched-send report skips it — so skipping or dropping it changes
   no result.

   Two invariants keep a search off messages that cannot answer it:

   - every slot below a queue's [head] is consumed, so a search starts
     at [head]; consumed messages are dropped in one pass once they
     outnumber the live ones, which resets [head] to 0;
   - no slot before a (tag, source, destination) channel's last
     known-source match can match that channel again, so the next
     known-source receive on it resumes there.  The search passed that
     earlier message over while a later one, for the same sender and
     receiver, was visible; the later one's round is no earlier, so the
     earlier one was visible too, and it was passed over for a sender
     set that only shrinks or a destination that never changes.  FIFO
     order per channel therefore holds. *)

open Fd_support

type aff = { a : int; b : int }

let aff_at f p = (f.a * p) + f.b

(* Floor/ceiling division (y > 0). *)
let fdiv x y = if x >= 0 then x / y else -(((-x) + y - 1) / y)
let cdiv x y = -fdiv (-x) y

let halfline_le l u k c =
  if k = 0 then (if c <= 0 then Some (l, u) else None)
  else if k > 0 then
    let b = fdiv (-c) k in
    if b < l then None else Some (l, min u b)
  else
    let b = cdiv c (-k) in
    if b > u then None else Some (max l b, u)

type 'a msg = {
  tag : int;
  dest : aff option;  (* None: destination unknown (wild) *)
  mutable senders : Iset.t;  (* senders whose copy is not yet consumed *)
  round : int;  (* replay round that pushed it *)
  seq : int;  (* emission order over all tags *)
  payload : 'a;
}

(* One int per channel within a tag's queue: [src * P + dest]. *)
module Itbl = Hashtbl.Make (Int)

(* Where a channel's last known-source match sat: its slot, checked
   against the message's [seq] because a compaction moves slots. *)
type resume = { mutable r_slot : int; mutable r_seq : int }

(* Slots [0, len) hold the tag's messages in emission order, [dead] of
   them consumed, every one below [head] among them.  [wild]: a message
   with an unknown destination was ever queued here. *)
type 'a queue = {
  mutable items : 'a msg array;
  mutable len : int;
  mutable dead : int;
  mutable head : int;
  mutable wild : bool;
  chans : resume Itbl.t;
}

type 'a t = {
  nprocs : int;
  queues : (int, 'a queue) Hashtbl.t;
  mutable next_seq : int;
  mutable round : int;
  mutable scanned : int;  (* slots inspected by searches *)
}

let create ~nprocs =
  { nprocs; queues = Hashtbl.create 16; next_seq = 0; round = 0; scanned = 0 }

let next_round t = t.round <- t.round + 1
let scanned t = t.scanned

let push t ~tag ~dest ~senders payload =
  let m = { tag; dest; senders; round = t.round; seq = t.next_seq; payload } in
  t.next_seq <- t.next_seq + 1;
  let q =
    match Hashtbl.find_opt t.queues tag with
    | Some q -> q
    | None ->
      let q =
        { items = [||]; len = 0; dead = 0; head = 0; wild = false; chans = Itbl.create 8 }
      in
      Hashtbl.replace t.queues tag q;
      q
  in
  if dest = None then q.wild <- true;
  if q.len = Array.length q.items then begin
    let items = Array.make (max 8 (2 * q.len)) m in
    Array.blit q.items 0 items 0 q.len;
    q.items <- items
  end;
  q.items.(q.len) <- m;
  q.len <- q.len + 1

let compact q =
  let j = ref 0 in
  for i = 0 to q.len - 1 do
    let m = q.items.(i) in
    if not (Iset.is_empty m.senders) then begin
      q.items.(!j) <- m;
      incr j
    end
  done;
  (* drop the stale references behind the live prefix *)
  if !j = 0 then q.items <- [||]
  else Array.fill q.items !j (q.len - !j) q.items.(0);
  q.len <- !j;
  q.dead <- 0;
  q.head <- 0

let consume t m sdrs =
  m.senders <- Iset.diff m.senders sdrs;
  if Iset.is_empty m.senders then begin
    let q = Hashtbl.find t.queues m.tag in
    q.dead <- q.dead + 1;
    while q.head < q.len && Iset.is_empty q.items.(q.head).senders do
      q.head <- q.head + 1
    done;
    if 2 * q.dead > q.len then compact q
  end

(* The slot of the first live message of [q] from slot [i] on that
   satisfies [pred], in emission order; -1 if none does. *)
let find_slot t q i pred =
  let rec go i =
    if i >= q.len then -1
    else begin
      t.scanned <- t.scanned + 1;
      let m = q.items.(i) in
      if (not (Iset.is_empty m.senders)) && pred m then i else go (i + 1)
    end
  in
  go i

(* The first live message of [q] for which [f] answers, in emission
   order. *)
let find_map t q f =
  let r = ref None in
  ignore (find_slot t q q.head (fun m -> r := f m; !r <> None));
  !r

(* Where a known-source search of a channel starts: its last match's
   slot, found again by [seq] (slots are in [seq] order) if a compaction
   moved it. *)
let resume_slot q r =
  if r.r_slot < q.len && q.items.(r.r_slot).seq = r.r_seq then max q.head r.r_slot
  else begin
    let lo = ref q.head and hi = ref q.len in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if q.items.(mid).seq < r.r_seq then lo := mid + 1 else hi := mid
    done;
    !lo
  end

let live t =
  Hashtbl.fold
    (fun _ q acc ->
      let acc = ref acc in
      for i = 0 to q.len - 1 do
        if not (Iset.is_empty q.items.(i).senders) then acc := q.items.(i) :: !acc
      done;
      !acc)
    t.queues []
  |> List.sort (fun x y -> compare x.seq y.seq)

(* --- matching ------------------------------------------------------------ *)

(* Dense-order visibility: the replay processes pids in ascending order
   within a round, so a message pushed THIS round is only visible to a
   receiver once its sender's turn has passed — sender <= receiver.
   Messages from earlier rounds are visible to everyone. *)
let sender_visible t (m : _ msg) ~sender ~receiver = m.round < t.round || sender <= receiver

let reflect c s =  (* { c - x | x in s } *)
  Iset.of_intervals (List.map (fun (a, b) -> (c - b, c - a)) (Iset.intervals s))

type mset = Known of Iset.t | Unknown

(* The pids in [lo, hi] whose recv (source form [s]) message [m]
   satisfies: sender s(p) is still pending in [m], m's destination form
   maps s(p) back to p, and the sender is visible (its turn this round
   has passed, or the message is from an earlier round). *)
let matched_set t (m : _ msg) ~lo ~hi (s : aff) : mset =
  let vis ms =
    if m.round < t.round then ms
    else
      (* same round: keep receivers p with s(p) <= p, i.e.
         (s.a - 1)*p + s.b <= 0 *)
      match halfline_le lo hi (s.a - 1) s.b with
      | Some (l, u) -> Iset.inter ms (Iset.range l u)
      | None -> Iset.empty
  in
  match m.dest with
  | None -> if Iset.is_empty m.senders then Known Iset.empty else Unknown
  | Some d ->
    let coeff = (d.a * s.a) - 1 and c0 = (d.a * s.b) + d.b in
    if coeff <> 0 then
      if c0 mod coeff = 0 then begin
        let p = -(c0 / coeff) in
        if p >= lo && p <= hi && Iset.mem (aff_at s p) m.senders then
          Known (vis (Iset.singleton p))
        else Known Iset.empty
      end
      else Known Iset.empty
    else if c0 <> 0 then Known Iset.empty
    else if s.a = 1 then
      Known (vis (Iset.inter (Iset.range lo hi) (Iset.shift (-s.b) m.senders)))
    else if s.a = -1 then
      Known (vis (Iset.inter (Iset.range lo hi) (reflect s.b m.senders)))
    else Unknown

(* The first message (in emission order) any receiver of the interval
   could take decides: it is the first match of the whole interval, or
   of part of it, which is then cut off at the first boundary of the
   matched set.  The cut is exact: every earlier message matched nobody
   in the whole interval, consuming senders never makes one match, and
   each piece keeps its pids, so visibility within the round is
   unchanged.  A wild message (unknown destination) can be anyone's
   match: only pid-at-a-time matching in dense order decides it. *)
let match_group t ~lo ~hi (s : aff) tag =
  let r =
    Option.bind (Hashtbl.find_opt t.queues tag) @@ fun q ->
    find_map t q (fun m ->
        match matched_set t m ~lo ~hi s with
        | Unknown -> Some `Split
        | Known ms -> (
          match Iset.intervals ms with
          | [] -> None
          | [ (l, h) ] when l = lo && h = hi -> Some (`All m)
          | (l, h) :: _ -> Some (`Cut (if l > lo then l else h + 1))))
  in
  Option.value r ~default:`None

let image_of_interval (s : aff) ~lo ~hi =
  if s.a = 0 then Iset.singleton s.b
  else if s.a = 1 then Iset.range (lo + s.b) (hi + s.b)
  else if s.a = -1 then Iset.range (s.b - hi) (s.b - lo)
  else Iset.of_list (List.init (hi - lo + 1) (fun i -> aff_at s (lo + i)))

(* Dense-order match for a single pid: direct (known-destination)
   messages first, earliest emission wins, then the wild queue.  A
   known-source receive searches its channel from the channel's last
   match on. *)
let match_one t p (src : int option) tag =
  match Hashtbl.find_opt t.queues tag with
  | None -> None
  | Some q ->
    let direct =
      match src with
      | Some sp when sp < 0 || sp >= t.nprocs -> None  (* no such sender *)
      | Some sp ->
        let key = (sp * t.nprocs) + p in
        let r = Itbl.find_opt q.chans key in
        let start = match r with Some r -> resume_slot q r | None -> q.head in
        let i =
          find_slot t q start (fun m ->
              match m.dest with
              | Some d ->
                aff_at d sp = p && Iset.mem sp m.senders
                && sender_visible t m ~sender:sp ~receiver:p
              | None -> false)
        in
        if i < 0 then None
        else begin
          let m = q.items.(i) in
          (match r with
          | Some r ->
            r.r_slot <- i;
            r.r_seq <- m.seq
          | None -> Itbl.replace q.chans key { r_slot = i; r_seq = m.seq });
          Some (m, sp)
        end
      | None ->
        find_map t q (fun m ->
            let sender =
              match m.dest with
              | None -> None
              | Some d ->
                if d.a = 0 then if d.b = p then Iset.min_elt m.senders else None
                else if (p - d.b) mod d.a = 0 then
                  let sdr = (p - d.b) / d.a in
                  if Iset.mem sdr m.senders then Some sdr else None
                else None
            in
            match sender with
            | Some sdr when sender_visible t m ~sender:sdr ~receiver:p -> Some (m, sdr)
            | _ -> None)
    in
    match direct with
    | Some _ -> direct
    | None when not q.wild -> None
    | None ->
      find_map t q (fun m ->
          match (m.dest, Iset.min_elt m.senders) with
          | None, Some sdr when sender_visible t m ~sender:sdr ~receiver:p -> Some (m, sdr)
          | _ -> None)
