(* Trace exporters.

   - [chrome]: Chrome trace_event JSON (the "JSON Array Format" inside a
     {"traceEvents": [...]} object), loadable in Perfetto / chrome://tracing.
     Machine events go on process 0 (one thread per logical processor,
     virtual-time timestamps); compiler pass spans go on process 1
     (wall-clock timestamps) — the two tracks use different timebases,
     which Perfetto renders fine since they are separate processes.
   - [matrix]: the per-(src, dest) communication matrix (messages, bytes;
     remap traffic counts toward bytes).
   - [summary]: per-processor utilization / blocked-time table.
   - [skeleton]: the normalized event skeleton (kind/src/dest/tag only,
     timestamps stripped) used by the golden-trace test suite.
   - [observe]: fold trace-derived distributions (receive waits, message
     sizes) into a {!Metrics} registry. *)

open Fd_support

(* --- Chrome trace_event ------------------------------------------------- *)

let us at = Json.Float (at *. 1e6)

let base ~name ~cat ~ph ~pid ~tid ~ts rest : Json.t =
  Json.Obj
    ([ ("name", Json.Str name); ("cat", Json.Str cat); ("ph", Json.Str ph);
       ("pid", Json.Int pid); ("tid", Json.Int tid); ("ts", ts) ]
    @ rest)

let instant ~name ~cat ~tid ~ts args =
  base ~name ~cat ~ph:"i" ~pid:0 ~tid ~ts
    (("s", Json.Str "t") :: if args = [] then [] else [ ("args", Json.Obj args) ])

let complete ~name ~cat ~pid ~tid ~ts ~dur args =
  base ~name ~cat ~ph:"X" ~pid ~tid ~ts
    (("dur", dur) :: if args = [] then [] else [ ("args", Json.Obj args) ])

let metadata ~name ~pid ~tid value =
  Json.Obj
    [ ("name", Json.Str name); ("ph", Json.Str "M"); ("pid", Json.Int pid);
      ("tid", Json.Int tid); ("args", Json.Obj [ ("name", Json.Str value) ]) ]

let chrome_event (e : Trace.ev) : Json.t option =
  match e.Trace.kind with
  | Trace.Send ->
    Some
      (instant
         ~name:(Fmt.str "send -> p%d tag %d" e.Trace.peer e.Trace.tag)
         ~cat:"comm" ~tid:e.Trace.proc ~ts:(us e.Trace.at)
         [ ("dest", Json.Int e.Trace.peer); ("tag", Json.Int e.Trace.tag);
           ("seq", Json.Int e.Trace.seq); ("bytes", Json.Int e.Trace.bytes) ])
  | Trace.Recv ->
    if e.Trace.dur > 0.0 then
      Some
        (complete
           ~name:(Fmt.str "wait p%d tag %d" e.Trace.peer e.Trace.tag)
           ~cat:"comm" ~pid:0 ~tid:e.Trace.proc
           ~ts:(us (e.Trace.at -. e.Trace.dur))
           ~dur:(us e.Trace.dur)
           [ ("src", Json.Int e.Trace.peer); ("tag", Json.Int e.Trace.tag) ])
    else
      Some
        (instant
           ~name:(Fmt.str "recv <- p%d tag %d" e.Trace.peer e.Trace.tag)
           ~cat:"comm" ~tid:e.Trace.proc ~ts:(us e.Trace.at)
           [ ("src", Json.Int e.Trace.peer); ("tag", Json.Int e.Trace.tag) ])
  | Trace.Block ->
    Some
      (instant ~name:"block" ~cat:"sched" ~tid:e.Trace.proc ~ts:(us e.Trace.at)
         [ ("on", Json.Int e.Trace.peer); ("tag", Json.Int e.Trace.tag) ])
  | Trace.Wake ->
    Some
      (instant ~name:"wake" ~cat:"sched" ~tid:e.Trace.proc ~ts:(us e.Trace.at)
         [ ("by", Json.Int e.Trace.peer); ("tag", Json.Int e.Trace.tag) ])
  | Trace.Coll_enter ->
    Some
      (complete
         ~name:(Fmt.str "coll %s" e.Trace.label)
         ~cat:"coll" ~pid:0 ~tid:e.Trace.proc ~ts:(us e.Trace.at)
         ~dur:(us e.Trace.dur)
         [ ("site", Json.Int e.Trace.tag) ])
  | Trace.Coll_exit ->
    Some
      (instant
         ~name:(Fmt.str "coll-exit %s" e.Trace.label)
         ~cat:"coll" ~tid:e.Trace.proc ~ts:(us e.Trace.at)
         [ ("site", Json.Int e.Trace.tag); ("bytes", Json.Int e.Trace.bytes) ])
  | Trace.Guard_skip ->
    Some
      (instant ~name:"guard-skip" ~cat:"compute" ~tid:e.Trace.proc
         ~ts:(us e.Trace.at) [])
  | Trace.Remap ->
    Some
      (instant
         ~name:(Fmt.str "remap %s -> p%d" e.Trace.label e.Trace.peer)
         ~cat:"comm" ~tid:e.Trace.proc ~ts:(us e.Trace.at)
         [ ("dest", Json.Int e.Trace.peer); ("bytes", Json.Int e.Trace.bytes) ])
  | Trace.Span ->
    Some
      (complete ~name:e.Trace.label ~cat:"compile" ~pid:1 ~tid:0
         ~ts:(us e.Trace.at) ~dur:(us e.Trace.dur) [])

let chrome ?nprocs (t : Trace.t) : Json.t =
  let nprocs =
    match nprocs with
    | Some n -> n
    | None ->
      (* infer the thread set from the events themselves *)
      Trace.fold t 0 (fun acc e -> max acc (max e.Trace.proc e.Trace.peer + 1))
  in
  let has_spans = Trace.count t ~kind:Trace.Span > 0 in
  let meta =
    metadata ~name:"process_name" ~pid:0 ~tid:0 "ensemble"
    :: List.init nprocs (fun p ->
           metadata ~name:"thread_name" ~pid:0 ~tid:p (Fmt.str "p%d" p))
    @
    if has_spans then
      [ metadata ~name:"process_name" ~pid:1 ~tid:0 "compiler";
        metadata ~name:"thread_name" ~pid:1 ~tid:0 "pipeline" ]
    else []
  in
  let evs = ref [] in
  Trace.iter t (fun e ->
      match chrome_event e with Some j -> evs := j :: !evs | None -> ());
  Json.Obj
    [ ("traceEvents", Json.List (meta @ List.rev !evs));
      ("displayTimeUnit", Json.Str "ms");
      ("otherData",
       Json.Obj
         [ ("total_events", Json.Int (Trace.total t));
           ("dropped_events", Json.Int (Trace.dropped t)) ]) ]

(* --- Communication matrix ----------------------------------------------- *)

type matrix = {
  m_nprocs : int;
  m_msgs : int array array;   (* [src].(dest) point-to-point messages *)
  m_bytes : int array array;  (* [src].(dest) bytes incl. remap traffic *)
}

let matrix ~nprocs (t : Trace.t) : matrix =
  let m =
    { m_nprocs = nprocs;
      m_msgs = Array.make_matrix nprocs nprocs 0;
      m_bytes = Array.make_matrix nprocs nprocs 0 }
  in
  Trace.iter t (fun e ->
      match e.Trace.kind with
      | Trace.Send when e.Trace.proc >= 0 && e.Trace.peer >= 0 ->
        m.m_msgs.(e.Trace.proc).(e.Trace.peer) <-
          m.m_msgs.(e.Trace.proc).(e.Trace.peer) + 1;
        m.m_bytes.(e.Trace.proc).(e.Trace.peer) <-
          m.m_bytes.(e.Trace.proc).(e.Trace.peer) + e.Trace.bytes
      | Trace.Remap when e.Trace.proc >= 0 && e.Trace.peer >= 0 ->
        m.m_bytes.(e.Trace.proc).(e.Trace.peer) <-
          m.m_bytes.(e.Trace.proc).(e.Trace.peer) + e.Trace.bytes
      | _ -> ());
  m

let pp_matrix ppf (m : matrix) =
  Fmt.pf ppf "messages (row = src, col = dest):@.";
  Fmt.pf ppf "%6s" "";
  for d = 0 to m.m_nprocs - 1 do Fmt.pf ppf " %8s" (Fmt.str "p%d" d) done;
  Fmt.pf ppf "@.";
  for s = 0 to m.m_nprocs - 1 do
    Fmt.pf ppf "%6s" (Fmt.str "p%d" s);
    for d = 0 to m.m_nprocs - 1 do Fmt.pf ppf " %8d" m.m_msgs.(s).(d) done;
    Fmt.pf ppf "@."
  done;
  Fmt.pf ppf "bytes (incl. remap traffic):@.";
  Fmt.pf ppf "%6s" "";
  for d = 0 to m.m_nprocs - 1 do Fmt.pf ppf " %8s" (Fmt.str "p%d" d) done;
  Fmt.pf ppf "@.";
  for s = 0 to m.m_nprocs - 1 do
    Fmt.pf ppf "%6s" (Fmt.str "p%d" s);
    for d = 0 to m.m_nprocs - 1 do Fmt.pf ppf " %8d" m.m_bytes.(s).(d) done;
    Fmt.pf ppf "@."
  done

(* --- Per-processor summary ---------------------------------------------- *)

type proc_summary = {
  s_proc : int;
  s_sends : int;
  s_recvs : int;
  s_bytes_out : int;
  s_bytes_in : int;
  s_blocked : float;   (* receive waits + collective waits, seconds *)
  s_busy : float;      (* compute time, if supplied *)
  s_util : float;      (* busy / elapsed; 0 when unknown *)
}

let summary ~nprocs ?busy ?(elapsed = 0.0) (t : Trace.t) : proc_summary list =
  let sends = Array.make nprocs 0 and recvs = Array.make nprocs 0 in
  let bout = Array.make nprocs 0 and bin = Array.make nprocs 0 in
  let blocked = Array.make nprocs 0.0 in
  Trace.iter t (fun e ->
      let p = e.Trace.proc in
      if p >= 0 && p < nprocs then
        match e.Trace.kind with
        | Trace.Send ->
          sends.(p) <- sends.(p) + 1;
          bout.(p) <- bout.(p) + e.Trace.bytes;
          if e.Trace.peer >= 0 && e.Trace.peer < nprocs then
            bin.(e.Trace.peer) <- bin.(e.Trace.peer) + e.Trace.bytes
        | Trace.Recv ->
          recvs.(p) <- recvs.(p) + 1;
          blocked.(p) <- blocked.(p) +. e.Trace.dur
        | Trace.Coll_enter -> blocked.(p) <- blocked.(p) +. e.Trace.dur
        | Trace.Remap ->
          bout.(p) <- bout.(p) + e.Trace.bytes;
          if e.Trace.peer >= 0 && e.Trace.peer < nprocs then
            bin.(e.Trace.peer) <- bin.(e.Trace.peer) + e.Trace.bytes
        | _ -> ());
  List.init nprocs (fun p ->
      let b = match busy with Some a when p < Array.length a -> a.(p) | _ -> 0.0 in
      { s_proc = p; s_sends = sends.(p); s_recvs = recvs.(p);
        s_bytes_out = bout.(p); s_bytes_in = bin.(p); s_blocked = blocked.(p);
        s_busy = b; s_util = (if elapsed > 0.0 then b /. elapsed else 0.0) })

let pp_summary ppf (rows : proc_summary list) =
  Fmt.pf ppf "%5s | %6s | %6s | %10s | %10s | %12s | %12s | %5s@." "proc" "sends"
    "recvs" "bytes out" "bytes in" "blocked (us)" "busy (us)" "util";
  Fmt.pf ppf
    "------+--------+--------+------------+------------+--------------+--------------+------@.";
  List.iter
    (fun s ->
      Fmt.pf ppf "%5s | %6d | %6d | %10d | %10d | %12.1f | %12.1f | %4.0f%%@."
        (Fmt.str "p%d" s.s_proc) s.s_sends s.s_recvs s.s_bytes_out s.s_bytes_in
        (s.s_blocked *. 1e6) (s.s_busy *. 1e6) (s.s_util *. 100.0))
    rows

(* --- Normalized skeleton (golden-trace format) --------------------------- *)

(* Communication-shaped events only, timestamps and payload sizes
   stripped: the stable fingerprint of where messages happen.  Scheduler
   bookkeeping (block/wake) and guard skips are excluded
   so goldens stay readable and survive cost-model changes. *)
let skeleton (t : Trace.t) : string list =
  let out = ref [] in
  Trace.iter t (fun e ->
      let line =
        match e.Trace.kind with
        | Trace.Send ->
          Some (Fmt.str "send p%d->p%d tag %d" e.Trace.proc e.Trace.peer e.Trace.tag)
        | Trace.Recv ->
          Some (Fmt.str "recv p%d<-p%d tag %d" e.Trace.proc e.Trace.peer e.Trace.tag)
        | Trace.Coll_enter ->
          Some (Fmt.str "coll p%d site %d %s" e.Trace.proc e.Trace.tag e.Trace.label)
        | Trace.Remap ->
          Some (Fmt.str "remap %s p%d->p%d" e.Trace.label e.Trace.proc e.Trace.peer)
        | _ -> None
      in
      match line with Some l -> out := l :: !out | None -> ());
  List.rev !out

(* --- Metrics from a trace ------------------------------------------------ *)

(* Bucket bounds in microseconds-scale seconds for waits; powers of two
   of the word size for message bytes. *)
let wait_bounds =
  [| 1e-6; 1e-5; 1e-4; 5e-4; 1e-3; 5e-3; 1e-2; 5e-2; 1e-1 |]

let bytes_bounds = [| 8.; 64.; 256.; 1024.; 4096.; 16384.; 65536. |]

let observe (m : Metrics.t) (t : Trace.t) : unit =
  let waits = Metrics.histogram m "recv_wait_seconds" ~bounds:wait_bounds in
  (* "message_size_bytes", not "message_bytes": the latter is already a
     counter when the registry comes from Stats.to_metrics *)
  let sizes = Metrics.histogram m "message_size_bytes" ~bounds:bytes_bounds in
  let coll = Metrics.histogram m "collective_wait_seconds" ~bounds:wait_bounds in
  let dropped = Metrics.counter m "trace_dropped_events" in
  Metrics.set_counter dropped (Trace.dropped t);
  Trace.iter t (fun e ->
      match e.Trace.kind with
      | Trace.Recv -> Metrics.observe waits e.Trace.dur
      | Trace.Send -> Metrics.observe sizes (float_of_int e.Trace.bytes)
      | Trace.Coll_enter -> Metrics.observe coll e.Trace.dur
      | _ -> ())
