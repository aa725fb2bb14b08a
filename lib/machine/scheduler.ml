(* Virtual-time scheduler for the processor ensemble.

   Each logical processor runs as a delimited computation (via OCaml 5
   effect handlers).  A processor runs until it finishes or blocks on a
   receive / collective; sends are asynchronous (infinite buffering, the
   iPSC model) and carry an arrival timestamp of
   [sender_clock + alpha + beta * bytes].  A blocking receive advances the
   receiver's clock to [max(own clock, arrival)].  Collectives
   (broadcast, remap) synchronize all P processors at a site, advance
   everyone to the ensemble maximum plus the collective's cost, and
   perform the global data movement.

   Resilient protocol: every message is stamped with a monotone
   per-(src, dest, tag) sequence number by the network layer.  Under a
   {!Fault} plan, transmissions may be dropped (recovered by an
   ack/retransmit loop with virtual-time timeouts and exponential
   backoff, the recovery latency charged to the arrival time), duplicated
   (deduped on the sequence number), or delayed; receivers reassemble in
   seq order from a per-channel buffer.  A message still undeliverable
   after [max_retries] retransmissions is declared lost and the run
   terminates with a structured {!Deadlock} carrying the wait-for graph,
   never a hang. *)

open Fd_support
open Effect.Deep

type blocked_on =
  | On_recv of { src : int; tag : int; loc : Loc.t }
  | On_collective of { site : int; label : string; loc : Loc.t }

type waiter = { w_proc : int; w_on : blocked_on; w_clock : float }

type lost_msg = { l_src : int; l_dest : int; l_tag : int; l_seq : int;
                  l_attempts : int }

type wait_for = {
  waiting : waiter list;
  cycle : int list;
  lost : lost_msg list;
}

type error =
  | Deadlock of wait_for
  | Watchdog of { proc : int; clock : float; limit : float }
  | Invalid_read of { proc : int; array : string; index : int array;
                      clock : float }
  | Runtime_error of string

exception Sim_error of error

let pp_loc_suffix ppf (loc : Loc.t) =
  if loc <> Loc.none then Fmt.pf ppf " [%a]" Loc.pp loc

let pp_blocked_on ppf = function
  | On_recv { src; tag; loc } ->
    Fmt.pf ppf "recv from p%d tag %d%a" src tag pp_loc_suffix loc
  | On_collective { site; label; loc } ->
    Fmt.pf ppf "collective site %d (%s)%a" site label pp_loc_suffix loc

let pp_waiter ppf w =
  Fmt.pf ppf "p%d blocked on %a at t=%.1fus" w.w_proc pp_blocked_on w.w_on
    (w.w_clock *. 1e6)

let pp_lost ppf l =
  Fmt.pf ppf "p%d -> p%d tag %d seq %d lost after %d attempts" l.l_src l.l_dest
    l.l_tag l.l_seq l.l_attempts

let error_to_string = function
  | Deadlock wf ->
    let parts =
      List.map (Fmt.str "%a" pp_waiter) wf.waiting
      @ (match wf.cycle with
        | [] -> []
        | c ->
          [ Fmt.str "wait cycle: %s"
              (String.concat " -> "
                 (List.map (Fmt.str "p%d") (c @ [ List.hd c ]))) ])
      @ List.map (Fmt.str "%a" pp_lost) wf.lost
    in
    "deadlock: " ^ String.concat "; " parts
  | Watchdog { proc; clock; limit } ->
    Fmt.str
      "watchdog: p%d exceeded the virtual-time limit (%.1fus > %.1fus); \
       livelock or unrecoverable message loss"
      proc (clock *. 1e6) (limit *. 1e6)
  | Invalid_read { proc; array; index; clock } ->
    Fmt.str
      "strict-validity violation: p%d read non-owned, never-received element \
       %s(%s) at t=%.1fus: missing communication"
      proc array
      (String.concat "," (Array.to_list (Array.map string_of_int index)))
      (clock *. 1e6)
  | Runtime_error s -> "runtime error: " ^ s

type outcome =
  | O_done of Interp.frame
  | O_blocked_recv of { src : int; tag : int; loc : Loc.t;
                        k : (Message.t, outcome) continuation }
  | O_blocked_coll of { site : int; op : Eff.coll_op; loc : Loc.t;
                        k : (unit, outcome) continuation }

(* The processors that have arrived at one collective site, newest
   first, and how many they are. *)
type coll_site = {
  mutable members : (int * Eff.coll_op * Loc.t * (unit, outcome) continuation) list;
  mutable arrived : int;
}

type t = {
  config : Config.t;
  stats : Stats.t;
  channels : (int * int * int, Message.chan) Hashtbl.t;  (* (src, dest, tag) *)
  parked : (int, int * int * Loc.t * (Message.t, outcome) continuation) Hashtbl.t;
  (* blocked receivers: proc -> (src, tag, source loc, continuation) *)
  colls : (int, coll_site) Hashtbl.t;
  runq : (int * (unit -> outcome)) Queue.t;
  final_frames : Interp.frame option array;
  mutable lost : lost_msg list;  (* permanently undeliverable, reversed *)
  budget : Budget.state option;
}

(* Raised by the budget ticks below; caught only by [run_partial], which
   turns it into a partial result. *)
exception Budget_stop of string

let create ?budget config =
  { config;
    stats = Stats.create config.Config.nprocs;
    channels = Hashtbl.create 64;
    parked = Hashtbl.create 8;
    colls = Hashtbl.create 8;
    runq = Queue.create ();
    final_frames = Array.make config.Config.nprocs None;
    lost = [];
    budget }

(* Charge one step ([Budget.tick_step]) or event ([Budget.tick_event]). *)
let charge t tick =
  match t.budget with
  | Some b when not (tick b 1) ->
    raise (Budget_stop (Option.value ~default:"budget exhausted" (Budget.exhausted b)))
  | _ -> ()

let channel t key = Message.channel t.channels key

(* Structured-event sink (Fd_trace).  Producers go through this module
   alias and an inline option match at each site, so a [None] trace costs
   one load + branch and allocates nothing. *)
module Tr = Fd_trace.Trace

(* Advance processor [p]'s clock to [clock], enforcing the virtual-time
   watchdog: a runaway or livelocked run becomes a diagnosable timeout. *)
let set_clock t p clock =
  charge t Budget.tick_step;
  t.stats.Stats.clocks.(p) <- clock;
  match t.config.Config.faults with
  | Some { Fault.watchdog = Some limit; _ } when clock > limit ->
    t.stats.Stats.watchdog_fired <- true;
    raise (Sim_error (Watchdog { proc = p; clock; limit }))
  | _ -> ()

let accept_recv t p ~src ~tag (msg, arrival) =
  let before = t.stats.Stats.clocks.(p) in
  set_clock t p (Float.max before arrival);
  let waited = Float.max 0.0 (arrival -. before) in
  t.stats.Stats.max_wait <- Float.max t.stats.Stats.max_wait waited;
  (match t.config.Config.trace with
  | Some tr ->
    Tr.emit tr ~kind:Tr.Recv ~at:t.stats.Stats.clocks.(p) ~proc:p ~peer:src ~tag
      ~seq:msg.Message.seq ~bytes:msg.Message.bytes ~dur:waited ()
  | None -> ());
  msg

let resume_recv t p src tag loc k : unit -> outcome =
  fun () ->
    let ch = channel t (src, p, tag) in
    match Message.take_deliverable ch with
    | Some delivery -> continue k (accept_recv t p ~src ~tag delivery)
    | None ->
      (* woken spuriously; repark *)
      O_blocked_recv { src; tag; loc; k }

(* Insert an arrived copy into the reassembly buffer, dropping
   duplicates by sequence number; wakes a parked receiver when the copy
   is the one it can deliver next. *)
let insert_arrival t (msg : Message.t) arrival =
  let src = msg.Message.src and dest = msg.Message.dest and tag = msg.Message.tag in
  let ch = channel t (src, dest, tag) in
  if msg.Message.seq < ch.deliver_seq || Hashtbl.mem ch.pending msg.Message.seq
  then begin
    t.stats.Stats.duplicates_dropped <- t.stats.Stats.duplicates_dropped + 1;
    match t.config.Config.trace with
    | Some tr ->
      Tr.emit tr ~kind:Tr.Dedup ~at:arrival ~proc:dest ~peer:src ~tag
        ~seq:msg.Message.seq ()
    | None -> ()
  end
  else begin
    Hashtbl.replace ch.pending msg.Message.seq (msg, arrival);
    if msg.Message.seq = ch.deliver_seq then
      match Hashtbl.find_opt t.parked dest with
      | Some (src', tag', loc', krecv) when src' = src && tag' = tag ->
        Hashtbl.remove t.parked dest;
        (match t.config.Config.trace with
        | Some tr ->
          Tr.emit tr ~kind:Tr.Wake ~at:arrival ~proc:dest ~peer:src ~tag
            ~seq:msg.Message.seq ()
        | None -> ());
        Queue.add (dest, resume_recv t dest src' tag' loc' krecv) t.runq
      | _ -> ()
  end

(* The network layer: stamp the sequence number, price the send, decide
   the message's fate under the fault plan, and enqueue the arrival(s).
   Recovery latency (retransmit timeouts, jitter, reorder penalties) is
   charged to the arrival time, so receive waits — and therefore Stats —
   honestly reflect the degraded network. *)
let transmit t p (msg : Message.t) =
  charge t Budget.tick_event;
  let ch = channel t (msg.Message.src, msg.Message.dest, msg.Message.tag) in
  let seq = ch.send_seq in
  ch.send_seq <- seq + 1;
  let msg = { msg with Message.seq = seq } in
  set_clock t p (t.stats.Stats.clocks.(p) +. t.config.Config.alpha);
  let base_arrival =
    t.stats.Stats.clocks.(p)
    +. (t.config.Config.beta *. float_of_int msg.Message.bytes)
  in
  t.stats.Stats.messages <- t.stats.Stats.messages + 1;
  t.stats.Stats.message_bytes <- t.stats.Stats.message_bytes + msg.Message.bytes;
  (match t.config.Config.trace with
  | Some tr ->
    Tr.emit tr ~kind:Tr.Send ~at:t.stats.Stats.clocks.(p) ~proc:msg.Message.src
      ~peer:msg.Message.dest ~tag:msg.Message.tag ~seq ~bytes:msg.Message.bytes ()
  | None -> ());
  match t.config.Config.faults with
  | None -> insert_arrival t msg base_arrival
  | Some plan ->
    let d =
      Fault.deliver plan
        ~msg_cost:(Config.message_cost t.config msg.Message.bytes)
        ~src:msg.Message.src ~dest:msg.Message.dest ~tag:msg.Message.tag ~seq
    in
    t.stats.Stats.faults_injected <- t.stats.Stats.faults_injected + d.Fault.injected;
    t.stats.Stats.retransmits <- t.stats.Stats.retransmits + (d.Fault.attempts - 1);
    if d.Fault.attempts > 1 then begin
      match t.config.Config.trace with
      | Some tr ->
        Tr.emit tr ~kind:Tr.Retransmit ~at:base_arrival ~proc:msg.Message.src
          ~peer:msg.Message.dest ~tag:msg.Message.tag ~seq ()
      | None -> ()
    end;
    if d.Fault.lost then begin
      t.stats.Stats.messages_lost <- t.stats.Stats.messages_lost + 1;
      t.lost <-
        { l_src = msg.Message.src; l_dest = msg.Message.dest;
          l_tag = msg.Message.tag; l_seq = seq; l_attempts = d.Fault.attempts }
        :: t.lost;
      match t.config.Config.trace with
      | Some tr ->
        Tr.emit tr ~kind:Tr.Lost ~at:base_arrival ~proc:msg.Message.src
          ~peer:msg.Message.dest ~tag:msg.Message.tag ~seq ()
      | None -> ()
    end
    else begin
      t.stats.Stats.fault_delay <- t.stats.Stats.fault_delay +. d.Fault.added_delay;
      let arrival = base_arrival +. d.Fault.added_delay in
      if d.Fault.added_delay > 0.0 && d.Fault.attempts = 1 then begin
        match t.config.Config.trace with
        | Some tr ->
          Tr.emit tr ~kind:Tr.Delay ~at:arrival ~proc:msg.Message.src
            ~peer:msg.Message.dest ~tag:msg.Message.tag ~seq ()
        | None -> ()
      end;
      insert_arrival t msg arrival;
      if d.Fault.duplicated then
        (* the duplicate trails the original by one startup cost and is
           deduped on insertion *)
        insert_arrival t msg (arrival +. t.config.Config.alpha)
    end

(* Run one processor's computation under the effect handler. *)
let run_proc t (p : int) (f : unit -> Interp.frame) : outcome =
  match_with f ()
    { retc = (fun frame -> O_done frame);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Eff.Tick dt ->
            Some
              (fun (k : (a, outcome) continuation) ->
                let dt = dt *. Config.slowdown t.config p in
                set_clock t p (t.stats.Stats.clocks.(p) +. dt);
                t.stats.Stats.busy.(p) <- t.stats.Stats.busy.(p) +. dt;
                continue k ())
          | Eff.Send msg ->
            Some
              (fun (k : (a, outcome) continuation) ->
                transmit t p msg;
                continue k ())
          | Eff.Recv (src, tag, loc) ->
            Some
              (fun (k : (a, outcome) continuation) ->
                let ch = channel t (src, p, tag) in
                match Message.take_deliverable ch with
                | Some delivery -> continue k (accept_recv t p ~src ~tag delivery)
                | None -> O_blocked_recv { src; tag; loc; k })
          | Eff.Collective (site, op, loc) ->
            Some
              (fun (k : (a, outcome) continuation) ->
                O_blocked_coll { site; op; loc; k })
          | Eff.Output line ->
            Some
              (fun (k : (a, outcome) continuation) ->
                t.stats.Stats.outputs <- (p, line) :: t.stats.Stats.outputs;
                continue k ())
          | _ -> None) }

(* --- Collectives ------------------------------------------------------ *)

let word_bytes t = t.config.Config.word_bytes

let coll_label = function
  | Eff.Coll_bcast { label; _ } -> "broadcast " ^ label
  | Eff.Coll_remap { obj; _ } -> "remap " ^ obj.Storage.name

let perform_bcast t ~site
    (parts : (int * Eff.coll_op * Loc.t * (unit, outcome) continuation) list) =
  let root, elems =
    match
      List.find_map
        (function
          | p, Eff.Coll_bcast { root; read; _ }, _, _ when root = p ->
            Some (p, read ())
          | _ -> None)
        parts
    with
    | Some x -> x
    | None -> raise (Sim_error (Runtime_error "broadcast with no root participant"))
  in
  let bytes = List.length elems * word_bytes t in
  let cost = Config.bcast_cost t.config bytes in
  let tmax =
    List.fold_left
      (fun acc (p, _, _, _) -> Float.max acc t.stats.Stats.clocks.(p))
      0.0 parts
  in
  t.stats.Stats.bcasts <- t.stats.Stats.bcasts + 1;
  t.stats.Stats.bcast_bytes <- t.stats.Stats.bcast_bytes + bytes;
  let release = tmax +. cost in
  List.iter
    (fun (p, op, _, _) ->
      let entered = t.stats.Stats.clocks.(p) in
      (match t.config.Config.trace with
      | Some tr ->
        let label = coll_label op in
        Tr.emit tr ~kind:Tr.Coll_enter ~at:entered ~proc:p ~tag:site
          ~dur:(release -. entered) ~label ();
        Tr.emit tr ~kind:Tr.Coll_exit ~at:release ~proc:p ~peer:root ~tag:site
          ~bytes ~label ()
      | None -> ());
      set_clock t p release;
      match op with
      | Eff.Coll_bcast { write; _ } -> if p <> root then write elems
      | Eff.Coll_remap _ ->
        raise (Sim_error (Runtime_error "mixed collective at one site")))
    parts

let perform_remap t ~site
    (parts : (int * Eff.coll_op * Loc.t * (unit, outcome) continuation) list) =
  let nprocs = t.config.Config.nprocs in
  let objs = Array.make nprocs None in
  let new_layout = ref None and move = ref true in
  List.iter
    (fun (p, op, _, _) ->
      match op with
      | Eff.Coll_remap { obj; new_layout = nl; move = mv } ->
        objs.(p) <- Some obj;
        new_layout := Some nl;
        move := mv
      | Eff.Coll_bcast _ ->
        raise (Sim_error (Runtime_error "mixed collective at one site")))
    parts;
  let new_layout =
    match !new_layout with
    | Some l -> l
    | None -> raise (Sim_error (Runtime_error "remap with no layout"))
  in
  let obj0 =
    match objs.(0) with
    | Some o -> o
    | None -> raise (Sim_error (Runtime_error "remap missing processor 0"))
  in
  let { Collective.rs_array = array; rs_total_bytes; rs_sent; rs_received;
        rs_npairs; rs_pairs; rs_mark_only } =
    Collective.plan_remap ~nprocs ~word_bytes:(word_bytes t) ~objs ~obj0
      ~new_layout ~move:!move
  in
  let tmax =
    List.fold_left
      (fun acc (p, _, _, _) -> Float.max acc t.stats.Stats.clocks.(p))
      0.0 parts
  in
  if not rs_mark_only then begin
    t.stats.Stats.remaps <- t.stats.Stats.remaps + 1;
    t.stats.Stats.remap_bytes <- t.stats.Stats.remap_bytes + rs_total_bytes
  end
  else t.stats.Stats.remap_marks <- t.stats.Stats.remap_marks + 1;
  (match t.config.Config.trace with
  | Some tr ->
    List.iter
      (fun ((q, r), bytes) ->
        Tr.emit tr ~kind:Tr.Remap ~at:tmax ~proc:q ~peer:r ~tag:site ~bytes
          ~label:array ())
      rs_pairs
  | None -> ());
  let label = "remap " ^ array in
  List.iter
    (fun (p, _, _, _) ->
      (* one message startup per partner pair plus the per-byte cost of
         everything sent and received *)
      let cost =
        if not rs_mark_only then
          (float_of_int rs_npairs.(p) *. t.config.Config.alpha)
          +. (t.config.Config.beta *. float_of_int (rs_sent.(p) + rs_received.(p)))
        else 0.0
      in
      let entered = t.stats.Stats.clocks.(p) in
      let release = tmax +. cost in
      (match t.config.Config.trace with
      | Some tr ->
        Tr.emit tr ~kind:Tr.Coll_enter ~at:entered ~proc:p ~tag:site
          ~dur:(release -. entered) ~label ();
        Tr.emit tr ~kind:Tr.Coll_exit ~at:release ~proc:p ~tag:site
          ~bytes:(rs_sent.(p) + rs_received.(p)) ~label ()
      | None -> ());
      set_clock t p release)
    parts

let perform_collective t site =
  match Hashtbl.find_opt t.colls site with
  | None -> ()
  | Some c ->
    let parts = List.rev c.members in
    Hashtbl.remove t.colls site;
    (match parts with
    | (_, Eff.Coll_bcast _, _, _) :: _ -> perform_bcast t ~site parts
    | (_, Eff.Coll_remap _, _, _) :: _ ->
      perform_remap t ~site parts
    | [] -> ());
    List.iter
      (fun (p, _, _, k) -> Queue.add (p, fun () -> continue k ()) t.runq)
      parts

(* --- Failure diagnosis ------------------------------------------------- *)

(* The wait-for graph at quiescence: every blocked processor, who it
   waits for, a cycle (if one exists) among those edges, and any
   permanently lost messages that explain the blockage. *)
let wait_for_graph t : wait_for =
  let nprocs = t.config.Config.nprocs in
  let waiting = ref [] in
  let succs = Array.make nprocs [] in
  let blocked = Array.make nprocs false in
  Hashtbl.iter
    (fun p (src, tag, loc, _) ->
      blocked.(p) <- true;
      succs.(p) <- [ src ];
      waiting :=
        { w_proc = p; w_on = On_recv { src; tag; loc };
          w_clock = t.stats.Stats.clocks.(p) }
        :: !waiting)
    t.parked;
  Hashtbl.iter
    (fun site { members; _ } ->
      let present = List.map (fun (p, _, _, _) -> p) members in
      let absent =
        List.filter (fun q -> not (List.mem q present))
          (List.init nprocs (fun q -> q))
      in
      List.iter
        (fun (p, op, loc, _) ->
          blocked.(p) <- true;
          succs.(p) <- absent;
          waiting :=
            { w_proc = p;
              w_on = On_collective { site; label = coll_label op; loc };
              w_clock = t.stats.Stats.clocks.(p) }
            :: !waiting)
        members)
    t.colls;
  (* cycle extraction: DFS over the wait-for edges; [path] holds the
     gray stack with the current node at its head *)
  let state = Array.make nprocs 0 in  (* 0 unvisited, 1 on stack, 2 done *)
  let cycle = ref [] in
  let rec dfs path p =
    List.iter
      (fun q ->
        if !cycle = [] && blocked.(q) then
          if state.(q) = 1 then begin
            (* back edge p -> q: the cycle is q .. p along the stack *)
            let rec upto = function
              | [] -> []
              | r :: rest -> if r = q then [ r ] else r :: upto rest
            in
            cycle := List.rev (upto path)
          end
          else if state.(q) = 0 then begin
            state.(q) <- 1;
            dfs (q :: path) q;
            state.(q) <- 2
          end)
      succs.(p)
  in
  for p = 0 to nprocs - 1 do
    if blocked.(p) && state.(p) = 0 then begin
      state.(p) <- 1;
      dfs [ p ] p;
      state.(p) <- 2
    end
  done;
  let order w w' = compare w.w_proc w'.w_proc in
  { waiting = List.sort order !waiting; cycle = !cycle; lost = List.rev t.lost }

(* --- Main loop --------------------------------------------------------- *)

type partial = {
  p_stats : Stats.t;
  p_frames : Interp.frame array option;
      (* None when the budget tripped before every processor finished *)
  p_exhausted : string option;
}

(* Start every processor's interpreter, then drain the run queue to
   completion (or budget exhaustion). *)
let run_partial ?budget (config : Config.t) (prog : Node.program) : partial =
  let t = create ?budget:(Option.map Budget.start budget) config in
  let nprocs = config.Config.nprocs in
  let code = Interp.compile prog in
  for p = 0 to nprocs - 1 do
    let interp = Interp.create ~proc:p ~config ~stats:t.stats code in
    Queue.add (p, fun () -> run_proc t p (fun () -> Interp.run_main interp)) t.runq
  done;
  let finished = ref 0 in
  match
    (try
     while not (Queue.is_empty t.runq) do
       let p, thunk = Queue.pop t.runq in
       match thunk () with
       | O_done frame ->
         t.final_frames.(p) <- Some frame;
         incr finished
       | O_blocked_recv { src; tag; loc; k } ->
         let ch = channel t (src, p, tag) in
         if Hashtbl.mem ch.pending ch.deliver_seq then
           Queue.add (p, resume_recv t p src tag loc k) t.runq
         else begin
           (match t.config.Config.trace with
           | Some tr ->
             Tr.emit tr ~kind:Tr.Block ~at:t.stats.Stats.clocks.(p) ~proc:p
               ~peer:src ~tag ()
           | None -> ());
           Hashtbl.replace t.parked p (src, tag, loc, k)
         end
       | O_blocked_coll { site; op; loc; k } ->
         let c =
           match Hashtbl.find_opt t.colls site with
           | Some c -> c
           | None ->
             let c = { members = []; arrived = 0 } in
             Hashtbl.replace t.colls site c;
             c
         in
         c.members <- (p, op, loc, k) :: c.members;
         c.arrived <- c.arrived + 1;
         if c.arrived = nprocs then perform_collective t site
     done
   with
   | Storage.Invalid_read { array; index; proc } ->
     raise
       (Sim_error
          (Invalid_read
             { proc; array; index; clock = t.stats.Stats.clocks.(proc) }))
   | Interp.Runtime_error msg -> raise (Sim_error (Runtime_error msg)))
  with
  | () ->
    if !finished < nprocs then raise (Sim_error (Deadlock (wait_for_graph t)));
    let frames =
      Array.map
        (function
          | Some f -> f
          | None -> raise (Sim_error (Runtime_error "missing final frame")))
        t.final_frames
    in
    { p_stats = t.stats; p_frames = Some frames; p_exhausted = None }
  | exception Budget_stop reason ->
    (* graceful degradation: stats so far, no final frames.  The parked
       continuations are dropped; each holds only simulator state. *)
    { p_stats = t.stats; p_frames = None; p_exhausted = Some reason }

let run (config : Config.t) (prog : Node.program) : Stats.t * Interp.frame array =
  match run_partial config prog with
  | { p_stats; p_frames = Some frames; _ } -> (p_stats, frames)
  | { p_frames = None; _ } ->
    Diag.internal ~pass:"simulate" "budget exhaustion without a budget"
