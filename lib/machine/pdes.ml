(* Parallel generation phase of the domains scheduler (conservative PDES).

   The scheduler's results must be bit-identical whether it runs on 1
   domain or N, so parallel simulation is split into two phases:

   Phase 1 (this module, [generate]): the real per-processor
   interpreters run as effect-handler coroutines sharded across OCaml 5
   domains.  A "ghost" handler maintains shadow clocks and channels just
   far enough to deliver real message values and decide fault fates, and
   records each processor's *action stream*: the exact sequence of
   effects it performed, with the compute costs and interpreter-level
   trace events attached to each action.  A safe-window barrier batches
   processors whose clocks fall within the lookahead bound (alpha, or
   [Config.safe_window]) so domains advance concurrently.

   Phase 2 ({!Scheduler}): the unmodified sequential scheduler loop runs
   scripted players that re-perform each recorded action as a real
   {!Eff} effect.  Because phase 2 *is* the sequential algorithm —
   re-stamping sequence numbers, recomputing every clock with the same
   float operations in the same order, re-deciding every fault fate from
   the same pure hash — its Stats, trace ring, and outputs are
   bit-identical to a domains=1 run by construction.

   Why the streams are schedule-independent (the Kahn-network argument):
   a receive names its (src, tag) explicitly and per-channel delivery is
   strict sequence order from a single sender, so the values any
   processor observes — and therefore every action it takes — do not
   depend on the interleaving.  The safe window is purely a batching
   policy; no correctness claim rests on it. *)

open Fd_support
open Effect.Deep

module Tr = Fd_trace.Trace

(* --- Recorded actions -------------------------------------------------- *)

type action = {
  a_flops : int;   (* flop count charged since the previous action *)
  a_mems : int;    (* memory-op count charged since the previous action *)
  a_emits : Tr.ev list;
      (* interpreter-level trace events (owner-guard skips) emitted since
         the previous action, oldest first; replayed verbatim *)
  a_op : op;
}

and op =
  | A_tick of float  (* the Tick effect's argument, pre-slowdown *)
  | A_send of Message.t  (* seq reset to 0 and payload stripped: the
                            replay network layer re-stamps and re-prices *)
  | A_recv of { src : int; tag : int; loc : Loc.t }
  | A_coll of { site : int; op : Eff.coll_op; loc : Loc.t;
                post : (int * int) ref }
      (* [op] is the scripted replay op (payloads from shared cells the
         performer fills); [post] carries the broadcast root's read()
         compute deltas, applied by the replay at perform time *)
  | A_output of string
  | A_done           (* the processor's computation returned *)
  | A_raise of exn   (* the computation raised; replay re-raises *)

type result = {
  scripts : action list array;   (* per-processor action streams *)
  frames : Interp.frame option array;
  g_exhausted : string option;
      (* per-processor budget reason, if generation truncated a stream *)
}

(* --- Engine state ------------------------------------------------------ *)

exception Gen_halt of string
(* Raised when a processor's per-processor budget trips or the watchdog
   fires during generation: the stream simply ends; the replay phase
   reproduces the sequential outcome (global Budget_stop / Watchdog). *)

type g_outcome =
  | G_done of Interp.frame
  | G_raised of exn
  | G_halted of string
  | G_paused of (unit, g_outcome) continuation  (* safe-window boundary *)
  | G_blocked_recv of { src : int; tag : int;
                        k : (Message.t, g_outcome) continuation }
  | G_blocked_coll of { site : int; op : Eff.coll_op; loc : Loc.t;
                        k : (unit, g_outcome) continuation }

type status =
  | Runnable  (* queued or running on its domain *)
  | Paused of (unit, g_outcome) continuation
  | Parked_recv of { src : int; tag : int;
                     k : (Message.t, g_outcome) continuation }
  | Parked_coll
  | Finished

type pstate = {
  proc : int;
  dom : int;
  shadow : Stats.t;
      (* private shadow: only clocks.(proc) / flops / mem_ops are live.
         Per-processor (not per-domain) so compute attribution in the
         recorded streams is exact *)
  mutable emitted : Tr.ev list;  (* captured interp emissions, reversed *)
  mutable fl_mark : int;
  mutable mem_mark : int;
  mutable acts : action list;    (* reversed *)
  mutable status : status;
  mutable frame : Interp.frame option;
  pbudget : Budget.state option;
      (* fresh per-processor budget at the *full* limits: one
         processor's usage is <= the ensemble total, so for step/event
         budgets the replay always trips before any stream runs dry *)
  mutable halt_reason : string option;
}

type gsite = {
  mutable members : (int * Eff.coll_op * (unit, g_outcome) continuation) list;
  mutable posts : (int * (int * int) ref) list;
  bc_cell : ((int array * Value.t) list, exn) Stdlib.result option ref;
  rm_cell : (Eff.remap_summary, exn) Stdlib.result option ref;
}

type engine = {
  config : Config.t;
  nprocs : int;
  ndoms : int;
  procs : pstate array;
  channels : (int * int * int, Message.chan) Hashtbl.t;
  colls : (int, gsite) Hashtbl.t;
  queues : (int * (unit -> g_outcome)) Queue.t array;  (* one per domain *)
  net_mu : Mutex.t;
      (* one lock over channels / parking / collective membership /
         run queues; communication events are rare next to compute, so
         a single lock is not the bottleneck (sharding it is future
         work, noted in DESIGN.md 6h) *)
  bar_mu : Mutex.t;
  bar_cv : Condition.t;
  mutable arrived : int;
  mutable round : int;
  mutable stop : bool;
  mutable window_hi : float;
      (* this round's safe-window ceiling; written only by the
         coordinator while every worker waits at the barrier *)
  mutable failed : bool;
      (* a collective failed during generation (mixed site, missing
         root, poisoned payload): stop generating; the replay phase
         reproduces the sequential error *)
}

let with_net e f =
  Mutex.lock e.net_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock e.net_mu) f

let clockv st = st.shadow.Stats.clocks.(st.proc)

let gchan e key = Message.channel e.channels key

let gsite_of e site =
  match Hashtbl.find_opt e.colls site with
  | Some s -> s
  | None ->
    let s = { members = []; posts = []; bc_cell = ref None; rm_cell = ref None } in
    Hashtbl.replace e.colls site s;
    s

let gen_charge st tick =
  match st.pbudget with
  | Some b when not (tick b 1) ->
    raise (Gen_halt (Option.value ~default:"budget exhausted" (Budget.exhausted b)))
  | _ -> ()

(* Mirror of {!Scheduler.set_clock} against the shadow clock: same
   update, same watchdog condition, but budget/watchdog trips only end
   this stream — the replay phase re-raises the real error at the same
   action. *)
let gen_set_clock e st clock =
  gen_charge st Budget.tick_step;
  st.shadow.Stats.clocks.(st.proc) <- clock;
  match e.config.Config.faults with
  | Some { Fault.watchdog = Some limit; _ } when clock > limit ->
    raise (Gen_halt "watchdog")
  | _ -> ()

let push_action st aop =
  let emits = List.rev st.emitted in
  st.emitted <- [];
  let fl = st.shadow.Stats.flops - st.fl_mark in
  let mm = st.shadow.Stats.mem_ops - st.mem_mark in
  st.fl_mark <- st.shadow.Stats.flops;
  st.mem_mark <- st.shadow.Stats.mem_ops;
  st.acts <- { a_flops = fl; a_mems = mm; a_emits = emits; a_op = aop } :: st.acts

(* Insert an arrival; wake a parked receiver (same conditions as the
   sequential [insert_arrival], minus stats — replay recomputes them).
   Caller holds net_mu. *)
let rec ginsert_locked e (msg : Message.t) arrival =
  let ch = gchan e (msg.Message.src, msg.Message.dest, msg.Message.tag) in
  if msg.Message.seq < ch.deliver_seq || Hashtbl.mem ch.pending msg.Message.seq
  then ()  (* duplicate: dropped; the replay counts it *)
  else begin
    Hashtbl.replace ch.pending msg.Message.seq (msg, arrival);
    if msg.Message.seq = ch.deliver_seq then begin
      let std = e.procs.(msg.Message.dest) in
      match std.status with
      | Parked_recv { src; tag; k }
        when src = msg.Message.src && tag = msg.Message.tag ->
        std.status <- Runnable;
        Queue.add (std.proc, resume_recv e std src tag k) e.queues.(std.dom)
      | _ -> ()
    end
  end

and resume_recv e st src tag k : unit -> g_outcome =
  fun () ->
    let delivery =
      with_net e (fun () -> Message.take_deliverable (gchan e (src, st.proc, tag)))
    in
    match delivery with
    | None -> G_blocked_recv { src; tag; k }  (* spurious; drain reparks *)
    | Some (msg, arrival) -> (
      match
        let before = clockv st in
        gen_set_clock e st (Float.max before arrival)
      with
      | () -> continue k msg
      | exception Gen_halt r -> G_halted r)

(* Mirror of the sequential [transmit]: same sequence stamping, same
   clock/arrival float expressions in the same order, same pure fault
   fate — so generation's shadow clocks equal the replay's clocks at
   every corresponding point. *)
let gen_transmit e st (msg : Message.t) =
  gen_charge st Budget.tick_event;
  let seq =
    with_net e (fun () ->
        let ch =
          gchan e (msg.Message.src, msg.Message.dest, msg.Message.tag)
        in
        let s = ch.send_seq in
        ch.send_seq <- s + 1;
        s)
  in
  let msg = { msg with Message.seq = seq } in
  gen_set_clock e st (clockv st +. e.config.Config.alpha);
  let base_arrival =
    clockv st +. (e.config.Config.beta *. float_of_int msg.Message.bytes)
  in
  match e.config.Config.faults with
  | None -> with_net e (fun () -> ginsert_locked e msg base_arrival)
  | Some plan ->
    let d =
      Fault.deliver plan
        ~msg_cost:(Config.message_cost e.config msg.Message.bytes)
        ~src:msg.Message.src ~dest:msg.Message.dest ~tag:msg.Message.tag ~seq
    in
    if d.Fault.lost then ()
    else begin
      let arrival = base_arrival +. d.Fault.added_delay in
      with_net e (fun () ->
          ginsert_locked e msg arrival;
          if d.Fault.duplicated then
            ginsert_locked e msg (arrival +. e.config.Config.alpha))
    end

(* Run one processor under the generation (ghost) handler. *)
let grun e st (f : unit -> Interp.frame) : g_outcome =
  match_with f ()
    { retc = (fun frame -> G_done frame);
      exnc = (fun ex -> G_raised ex);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Eff.Tick dt ->
            Some
              (fun (k : (a, g_outcome) continuation) ->
                push_action st (A_tick dt);
                let dt = dt *. Config.slowdown e.config st.proc in
                match gen_set_clock e st (clockv st +. dt) with
                | () ->
                  if clockv st > e.window_hi then G_paused k else continue k ()
                | exception Gen_halt r -> G_halted r)
          | Eff.Send msg ->
            Some
              (fun (k : (a, g_outcome) continuation) ->
                push_action st
                  (A_send { msg with Message.seq = 0; elems = [] });
                match gen_transmit e st msg with
                | () ->
                  if clockv st > e.window_hi then G_paused k else continue k ()
                | exception Gen_halt r -> G_halted r)
          | Eff.Recv (src, tag, loc) ->
            Some
              (fun (k : (a, g_outcome) continuation) ->
                push_action st (A_recv { src; tag; loc });
                let delivery =
                  with_net e (fun () ->
                      Message.take_deliverable (gchan e (src, st.proc, tag)))
                in
                match delivery with
                | Some (msg, arrival) -> (
                  match
                    let before = clockv st in
                    gen_set_clock e st (Float.max before arrival)
                  with
                  | () -> continue k msg
                  | exception Gen_halt r -> G_halted r)
                | None -> G_blocked_recv { src; tag; k })
          | Eff.Collective (site, op, loc) ->
            Some
              (fun (k : (a, g_outcome) continuation) ->
                G_blocked_coll { site; op; loc; k })
          | Eff.Output line ->
            Some
              (fun (k : (a, g_outcome) continuation) ->
                push_action st (A_output line);
                continue k ())
          | _ -> None) }

(* --- Collectives at generation time ------------------------------------ *)

(* Build the scripted replay op a participant's A_coll records: payloads
   come from the site's shared cells, filled when the collective
   performs (or poisoned with the exception it hit). *)
let scripted_op gs (op : Eff.coll_op) : Eff.coll_op =
  match op with
  | Eff.Coll_bcast { root; label; _ } ->
    let cell = gs.bc_cell in
    let read () =
      match !cell with
      | Some (Ok elems) -> elems
      | Some (Error ex) -> raise ex
      | None ->
        Diag.internal ~pass:"simulate" "replayed broadcast payload missing"
    in
    Eff.Coll_bcast { root; label; read; write = ignore }
  | Eff.Coll_remap { obj; _ } ->
    Eff.Coll_replay_remap { label = obj.Storage.name; summary = gs.rm_cell }
  | Eff.Coll_replay_remap _ ->
    Diag.internal ~pass:"simulate" "replay op performed during generation"

let wake e (st : pstate) k =
  st.status <- Runnable;
  Queue.add (st.proc, fun () -> continue k ()) e.queues.(st.dom)

(* Perform a completed collective.  Caller holds net_mu; every other
   processor is parked at this site, so touching their storage, shadow
   clocks, and budgets is race-free.  Classification errors are not
   raised here: generation just stops ([failed]) and the replay phase
   reproduces the exact sequential error from the scripted ops. *)
let perform_gcoll e site gs =
  Hashtbl.remove e.colls site;
  let parts = List.rev gs.members in
  let tmax () =
    List.fold_left
      (fun acc (p, _, _) -> Float.max acc (clockv e.procs.(p)))
      0.0 parts
  in
  let release_all per_proc_release =
    List.iter
      (fun (p, op, k) ->
        let stp = e.procs.(p) in
        match gen_set_clock e stp (per_proc_release p) with
        | () ->
          (match op with
          | Eff.Coll_bcast { root; write; _ } -> (
            match !(gs.bc_cell) with
            | Some (Ok elems) -> if p <> root then write elems
            | _ -> ())
          | _ -> ());
          wake e stp k
        | exception Gen_halt r ->
          stp.halt_reason <- Some r;
          stp.status <- Finished)
      parts
  in
  match parts with
  | (_, Eff.Coll_bcast _, _) :: _ -> (
    (* order mirrors the sequential perform_bcast: root read first (its
       failure poisons the site), mixed detection during release *)
    match
      List.find_map
        (function
          | p, Eff.Coll_bcast { root; read; _ }, _ when root = p ->
            Some (p, read)
          | _ -> None)
        parts
    with
    | None -> e.failed <- true  (* replay raises "no root participant" *)
    | Some (root, read) ->
      let str = e.procs.(root) in
      let fl0 = str.shadow.Stats.flops and mm0 = str.shadow.Stats.mem_ops in
      let finish_read res =
        (* the root's read() compute lands in its A_coll's [post] so the
           replay charges it exactly where the sequential path does *)
        let dfl = str.shadow.Stats.flops - fl0
        and dmm = str.shadow.Stats.mem_ops - mm0 in
        str.fl_mark <- str.fl_mark + dfl;
        str.mem_mark <- str.mem_mark + dmm;
        (match List.assoc_opt root gs.posts with
        | Some post -> post := (dfl, dmm)
        | None -> ());
        gs.bc_cell := Some res
      in
      (match read () with
      | exception ex ->
        finish_read (Error ex);
        e.failed <- true
      | elems ->
        finish_read (Ok elems);
        let mixed =
          List.exists
            (function
              | _, (Eff.Coll_remap _ | Eff.Coll_replay_remap _), _ -> true
              | _ -> false)
            parts
        in
        if mixed then e.failed <- true
        else begin
          let bytes = List.length elems * e.config.Config.word_bytes in
          let cost = Config.bcast_cost e.config bytes in
          let release = tmax () +. cost in
          release_all (fun _ -> release)
        end))
  | (_, Eff.Coll_remap _, _) :: _ -> (
    let objs = Array.make e.nprocs None in
    let new_layout = ref None and move = ref true in
    let mixed = ref false in
    List.iter
      (fun (p, op, _) ->
        match op with
        | Eff.Coll_remap { obj; new_layout = nl; move = mv } ->
          objs.(p) <- Some obj;
          new_layout := Some nl;
          move := mv
        | _ -> mixed := true)
      parts;
    match (!mixed, !new_layout, objs.(0)) with
    | true, _, _ | _, None, _ | _, _, None -> e.failed <- true
    | false, Some nl, Some obj0 -> (
      match
        Collective.plan_remap ~nprocs:e.nprocs
          ~word_bytes:e.config.Config.word_bytes ~objs ~obj0 ~new_layout:nl
          ~move:!move
      with
      | exception ex ->
        gs.rm_cell := Some (Error ex);
        e.failed <- true
      | summary ->
        gs.rm_cell := Some (Ok summary);
        let tm = tmax () in
        release_all (fun p ->
            tm
            +. Collective.remap_cost ~alpha:e.config.Config.alpha
                 ~beta:e.config.Config.beta summary p)))
  | (_, Eff.Coll_replay_remap _, _) :: _ | [] ->
    Diag.internal ~pass:"simulate" "malformed collective site in generation"

(* --- Worker loop ------------------------------------------------------- *)

let drain e d =
  let rec loop () =
    match with_net e (fun () -> Queue.take_opt e.queues.(d)) with
    | None -> ()
    | Some (p, thunk) ->
      let st = e.procs.(p) in
      (match thunk () with
      | G_done frame ->
        push_action st A_done;
        st.frame <- Some frame;
        st.status <- Finished
      | G_raised ex ->
        push_action st (A_raise ex);
        st.status <- Finished
      | G_halted reason ->
        st.halt_reason <- Some reason;
        st.status <- Finished
      | G_paused k -> st.status <- Paused k
      | G_blocked_recv { src; tag; k } ->
        with_net e (fun () ->
            let ch = gchan e (src, p, tag) in
            if Hashtbl.mem ch.pending ch.deliver_seq then
              Queue.add (p, resume_recv e st src tag k) e.queues.(d)
            else st.status <- Parked_recv { src; tag; k })
      | G_blocked_coll { site; op; loc; k } ->
        with_net e (fun () ->
            let gs = gsite_of e site in
            let post = ref (0, 0) in
            push_action st (A_coll { site; op = scripted_op gs op; loc; post });
            gs.posts <- (p, post) :: gs.posts;
            gs.members <- (p, op, k) :: gs.members;
            st.status <- Parked_coll;
            if List.length gs.members = e.nprocs then perform_gcoll e site gs));
      loop ()
  in
  loop ()

(* Runs with every worker parked at the barrier: computes the next safe
   window W = (min clock over runnable work) + lookahead and releases
   paused processors inside it.  If nothing is runnable but paused
   processors remain, the window is ignored for one round — it is a
   batching policy, not a correctness condition — so a processor ahead
   of a deadlocked peer still drains to its own block point. *)
let coordinator e =
  Mutex.lock e.net_mu;
  let all_finished =
    Array.for_all
      (fun st -> match st.status with Finished -> true | _ -> false)
      e.procs
  in
  if e.failed || all_finished then e.stop <- true
  else begin
    let any_queued =
      Array.exists (fun q -> not (Queue.is_empty q)) e.queues
    in
    let wmin = ref infinity in
    Array.iter
      (fun st ->
        match st.status with
        | Paused _ -> wmin := Float.min !wmin (clockv st)
        | _ -> ())
      e.procs;
    Array.iter
      (fun q ->
        Queue.iter (fun (p, _) -> wmin := Float.min !wmin (clockv e.procs.(p))) q)
      e.queues;
    let look =
      match e.config.Config.safe_window with
      | Some w -> w
      | None -> e.config.Config.alpha
    in
    let hi = if !wmin = infinity then look else !wmin +. look in
    e.window_hi <- hi;
    let released = ref false in
    Array.iter
      (fun st ->
        match st.status with
        | Paused k when clockv st <= hi ->
          st.status <- Runnable;
          released := true;
          Queue.add (st.proc, (fun () -> continue k ())) e.queues.(st.dom)
        | _ -> ())
      e.procs;
    if not (any_queued || !released) then begin
      let any_paused = ref false in
      Array.iter
        (fun st ->
          match st.status with
          | Paused k ->
            any_paused := true;
            st.status <- Runnable;
            Queue.add (st.proc, (fun () -> continue k ())) e.queues.(st.dom)
          | _ -> ())
        e.procs;
      if !any_paused then e.window_hi <- infinity
      else e.stop <- true  (* quiescence: the replay diagnoses the deadlock *)
    end
  end;
  Mutex.unlock e.net_mu

let barrier e : bool =
  Mutex.lock e.bar_mu;
  e.arrived <- e.arrived + 1;
  if e.arrived = e.ndoms then begin
    coordinator e;
    e.arrived <- 0;
    e.round <- e.round + 1;
    Condition.broadcast e.bar_cv
  end
  else begin
    let r = e.round in
    while e.round = r do
      Condition.wait e.bar_cv e.bar_mu
    done
  end;
  let continue_ = not e.stop in
  Mutex.unlock e.bar_mu;
  continue_

let generate ?budget (config : Config.t) (prog : Node.program) : result =
  let nprocs = config.Config.nprocs in
  let ndoms = max 1 (min config.Config.domains nprocs) in
  let look =
    match config.Config.safe_window with
    | Some w -> w
    | None -> config.Config.alpha
  in
  let procs =
    Array.init nprocs (fun p ->
        { proc = p; dom = p * ndoms / nprocs; shadow = Stats.create nprocs;
          emitted = []; fl_mark = 0; mem_mark = 0; acts = [];
          status = Runnable; frame = None;
          pbudget = Option.map Budget.start budget; halt_reason = None })
  in
  let e =
    { config; nprocs; ndoms; procs;
      channels = Hashtbl.create 64;
      colls = Hashtbl.create 8;
      queues = Array.init ndoms (fun _ -> Queue.create ());
      net_mu = Mutex.create ();
      bar_mu = Mutex.create ();
      bar_cv = Condition.create ();
      arrived = 0; round = 0; stop = false; window_hi = look; failed = false }
  in
  let code = Interp.compile prog in
  for p = 0 to nprocs - 1 do
    let st = procs.(p) in
    (* each interpreter gets a private config: its own shadow stats and,
       when tracing is on, a sink ring that captures its guard-skip
       emissions into the action stream *)
    let iconfig =
      match config.Config.trace with
      | None -> { config with Config.domains = 1 }
      | Some _ ->
        let sink ev = st.emitted <- ev :: st.emitted in
        { config with
          Config.domains = 1;
          trace = Some (Tr.create ~capacity:1 ~sink ()) }
    in
    let interp = Interp.create ~proc:p ~config:iconfig ~stats:st.shadow code in
    Queue.add (p, fun () -> grun e st (fun () -> Interp.run_main interp))
      e.queues.(st.dom)
  done;
  let worker d () =
    let rec loop () =
      drain e d;
      if barrier e then loop ()
    in
    loop ()
  in
  let others = Array.init (ndoms - 1) (fun i -> Domain.spawn (worker (i + 1))) in
  worker 0 ();
  Array.iter Domain.join others;
  let g_exhausted =
    Array.fold_left
      (fun acc st -> match acc with Some _ -> acc | None -> st.halt_reason)
      None procs
  in
  { scripts = Array.map (fun st -> List.rev st.acts) procs;
    frames = Array.map (fun st -> st.frame) procs;
    g_exhausted }
