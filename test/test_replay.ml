(* The replay's message queue (Replay) against a naive model that keeps
   every message ever pushed and scans each search from the first one,
   and the queue's search cost on a receiver that lags its senders. *)

open Fd_support
open Fd_verify

let check = Alcotest.check
let n = 6  (* pids 0..n-1 *)

(* --- the naive model ------------------------------------------------------ *)

type mmsg = {
  id : int;
  tag : int;
  dest : Replay.aff option;
  mutable senders : Iset.t;
  round : int;
}

type model = { mutable msgs : mmsg list; mutable round : int }

let visible md (m : mmsg) ~sender ~receiver = m.round < md.round || sender <= receiver
let live_of md tag = List.filter (fun m -> m.tag = tag && not (Iset.is_empty m.senders)) md.msgs
let reaches (d : Replay.aff) s p = Replay.aff_at d s = p

(* Known-destination messages first, each taking its least sender that
   reaches [p] and is allowed by [src]; then the wild ones. *)
let model_match_one md p src tag =
  let direct m =
    match m.dest with
    | None -> None
    | Some d -> (
      let fits s = reaches d s p && (match src with Some sp -> s = sp | None -> true) in
      match List.filter fits (Iset.to_list m.senders) with
      | s :: _ when visible md m ~sender:s ~receiver:p -> Some (m, s)
      | _ -> None)
  in
  let wild m =
    match (m.dest, Iset.min_elt m.senders) with
    | None, Some s when visible md m ~sender:s ~receiver:p -> Some (m, s)
    | _ -> None
  in
  let msgs = live_of md tag in
  match List.find_map direct msgs with Some _ as r -> r | None -> List.find_map wild msgs

(* The receivers of [lo, hi] a message matches, pid by pid. *)
let model_match_group md ~lo ~hi (s : Replay.aff) tag =
  let first m =
    match m.dest with
    | None -> Some `Split
    | Some d -> (
      let takes p =
        let sp = Replay.aff_at s p in
        Iset.mem sp m.senders && reaches d sp p && visible md m ~sender:sp ~receiver:p
      in
      match List.filter takes (List.init (hi - lo + 1) (fun i -> lo + i)) with
      | [] -> None
      | ps when List.length ps = hi - lo + 1 -> Some (`All m.id)
      | l :: _ when l > lo -> Some (`Cut l)
      | l :: rest ->
        (* the end of the run that starts at [lo] *)
        let rec run_end e = function x :: r when x = e + 1 -> run_end x r | _ -> e in
        Some (`Cut (run_end l rest + 1)))
  in
  Option.value (List.find_map first (live_of md tag)) ~default:`None

(* --- random operation sequences ------------------------------------------ *)

type op =
  | Push of int * Replay.aff option * int * int  (* tag, dest, senders lo, hi *)
  | Round
  | One of int * int option * int  (* receiver, source, tag *)
  | Group of int * int * Replay.aff * int  (* lo, hi, source form, tag *)
  | Drop of int * int * int  (* k-th live message, senders lo, hi *)

let pp_aff (f : Replay.aff) = Fmt.str "%d*p%+d" f.a f.b

let pp_op = function
  | Push (tag, d, l, h) ->
    Fmt.str "push tag %d dest %s senders [%d,%d]" tag
      (Option.fold ~none:"wild" ~some:pp_aff d) l h
  | Round -> "round"
  | One (p, s, tag) ->
    Fmt.str "one p%d src %s tag %d" p (Option.fold ~none:"*" ~some:string_of_int s) tag
  | Group (lo, hi, s, tag) -> Fmt.str "group [%d,%d] src %s tag %d" lo hi (pp_aff s) tag
  | Drop (k, l, h) -> Fmt.str "drop #%d senders [%d,%d]" k l h

let op_gen =
  QCheck2.Gen.(
    let pid = int_range 0 (n - 1) in
    let tag = int_range 0 1 in
    let aff = map2 (fun a b -> { Replay.a; b }) (int_range (-2) 2) (int_range (-2) (n + 1)) in
    let interval = map2 (fun x y -> (min x y, max x y)) pid pid in
    frequency
      [
        ( 5,
          map3
            (fun tag d (l, h) -> Push (tag, d, l, h))
            tag (frequency [ (1, return None); (6, map Option.some aff) ]) interval );
        (1, return Round);
        ( 5,
          map3
            (fun p s tag -> One (p, s, tag))
            pid
            (frequency [ (1, return None); (4, map Option.some (int_range (-1) n)) ])
            tag );
        (3, map3 (fun (lo, hi) s tag -> Group (lo, hi, s, tag)) interval aff tag);
        (1, map2 (fun k (l, h) -> Drop (k, l, h)) (int_range 0 20) interval);
      ])

(* Run [ops] on both; every answer, and the live messages after each
   step, must agree.  A match is consumed as the group engine does. *)
let agrees ops =
  let t = Replay.create ~nprocs:n in
  let md = { msgs = []; round = 0 } in
  let next_id = ref 0 in
  let live_ids () = List.map (fun (m : int Replay.msg) -> (m.payload, m.senders)) (Replay.live t) in
  let model_live () =
    List.filter_map
      (fun m -> if Iset.is_empty m.senders then None else Some (m.id, m.senders))
      md.msgs
  in
  let model_msg id = List.find (fun m -> m.id = id) md.msgs in
  let same_live () =
    List.equal (fun (a, s) (b, s') -> a = b && Iset.equal s s') (live_ids ()) (model_live ())
  in
  List.for_all
    (fun op ->
      let ok =
        match op with
        | Push (tag, dest, l, h) ->
          let id = !next_id in
          incr next_id;
          Replay.push t ~tag ~dest ~senders:(Iset.range l h) id;
          md.msgs <- md.msgs @ [ { id; tag; dest; senders = Iset.range l h; round = md.round } ];
          true
        | Round ->
          Replay.next_round t;
          md.round <- md.round + 1;
          true
        | One (p, src, tag) -> (
          match (Replay.match_one t p src tag, model_match_one md p src tag) with
          | None, None -> true
          | Some (m, s), Some (m', s') when m.payload = m'.id && s = s' ->
            Replay.consume t m (Iset.singleton s);
            m'.senders <- Iset.diff m'.senders (Iset.singleton s);
            true
          | _ -> false)
        | Group (lo, hi, s, tag) -> (
          match (Replay.match_group t ~lo ~hi s tag, model_match_group md ~lo ~hi s tag) with
          | `All m, `All id when m.payload = id ->
            let img = Replay.image_of_interval s ~lo ~hi in
            Replay.consume t m img;
            let m' = model_msg id in
            m'.senders <- Iset.diff m'.senders img;
            true
          | `Cut c, `Cut c' -> c = c'
          | `Split, `Split | `None, `None -> true
          | _ -> false)
        | Drop (k, l, h) -> (
          match List.nth_opt (Replay.live t) (k mod max 1 (List.length (Replay.live t))) with
          | None -> true
          | Some m ->
            Replay.consume t m (Iset.range l h);
            let m' = model_msg m.payload in
            m'.senders <- Iset.diff m'.senders (Iset.range l h);
            true)
      in
      ok && same_live ())
    ops

let test_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"replay queue = naive model (push, consume, match)"
       ~print:(fun ops -> String.concat "\n" (List.map pp_op ops))
       QCheck2.Gen.(list_size (int_range 1 120) op_gen)
       agrees)

(* --- search cost ------------------------------------------------------------ *)

(* Senders 0..6 each send [msgs] messages to p+1 before any receiver
   takes one; then receivers 1..7 take theirs in turn, each trailing the
   one before.  Every message stays live until receiver 7 takes it, so
   a search that starts at the queue's front re-reads every message the
   receiver already took: quadratic in [msgs].  Resuming at the
   channel's last match reads about two slots per receive. *)
let lagging msgs =
  let t = Replay.create ~nprocs:8 in
  for k = 0 to msgs - 1 do
    Replay.push t ~tag:0 ~dest:(Some { Replay.a = 1; b = 1 }) ~senders:(Iset.range 0 6) k
  done;
  for p = 1 to 7 do
    for k = 0 to msgs - 1 do
      match Replay.match_one t p (Some (p - 1)) 0 with
      | Some (m, sdr) when m.payload = k && sdr = p - 1 -> Replay.consume t m (Iset.singleton sdr)
      | _ -> Alcotest.failf "receiver %d: message %d not matched in order" p k
    done
  done;
  check Alcotest.int "every message taken" 0 (List.length (Replay.live t));
  Replay.scanned t

let test_lagging_linear () =
  List.iter
    (fun msgs ->
      let receives = 7 * msgs in
      let scanned = lagging msgs in
      if scanned > 2 * receives then
        Alcotest.failf "%d messages: %d slots scanned for %d receives" msgs scanned receives)
    [ 100; 200; 400 ]

(* A receive with no match reads a queue without wild messages once. *)
let test_miss_scans_once () =
  let t = Replay.create ~nprocs:8 in
  for k = 0 to 9 do
    Replay.push t ~tag:0 ~dest:(Some { Replay.a = 0; b = 5 }) ~senders:(Iset.range 0 7) k
  done;
  check Alcotest.bool "no match for p3" true (Replay.match_one t 3 (Some 0) 0 = None);
  check Alcotest.int "slots scanned" 10 (Replay.scanned t)

let suite =
  [
    test_model;
    Alcotest.test_case "lagging receiver: search cost linear in messages" `Quick
      test_lagging_linear;
    Alcotest.test_case "a miss reads a queue without wild messages once" `Quick
      test_miss_scans_once;
  ]
