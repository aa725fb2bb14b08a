(* Structured event tracing for the ensemble simulator and the compiler
   pipeline.

   The design goal is zero cost when tracing is off and no per-event
   allocation once the ring is full: a trace is a ring of mutable event
   records; each slot gets its record when it is first written (so a
   short run pays only for the events it emits), and once the ring is
   full [emit] overwrites the oldest slot in place.  Producers
   (scheduler, interpreter, pipeline) hold a [t option] and emit
   through one option match.

   Timestamps are the simulator's virtual clock (seconds) for machine
   events and wall-clock seconds for compiler [Span] events; consumers
   that mix both (the Chrome exporter) place them on separate process
   tracks. *)

type kind =
  | Send        (* proc=src, peer=dest, tag, seq, bytes; at = network hand-off *)
  | Recv        (* proc=receiver, peer=src, tag; dur = blocked wait *)
  | Block       (* proc parks on (peer, tag); at = park time *)
  | Wake        (* a parked proc is released by an arrival *)
  | Coll_enter  (* proc arrives at collective site=tag; dur = wait to release *)
  | Coll_exit   (* proc released from collective site=tag; bytes = payload share *)
  | Guard_skip  (* an owner guard evaluated false on proc; body skipped *)
  | Remap       (* remap traffic proc=sender -> peer, bytes; label = array *)
  | Span        (* compiler pass span: label = pass, at/dur wall-clock *)

let kind_name = function
  | Send -> "send"
  | Recv -> "recv"
  | Block -> "block"
  | Wake -> "wake"
  | Coll_enter -> "coll-enter"
  | Coll_exit -> "coll-exit"
  | Guard_skip -> "guard-skip"
  | Remap -> "remap"
  | Span -> "span"

type ev = {
  mutable at : float;     (* seconds *)
  mutable kind : kind;
  mutable proc : int;     (* acting processor; -1 = the compiler *)
  mutable peer : int;     (* partner processor; -1 = none *)
  mutable tag : int;      (* message tag or collective site; -1 = none *)
  mutable seq : int;      (* channel sequence number; -1 = none *)
  mutable bytes : int;
  mutable dur : float;    (* span / wait length, seconds *)
  mutable label : string; (* array, collective or pass name; "" = none *)
}

type t = {
  cap : int;
  buf : ev array;
  mutable total : int;  (* events ever emitted; ring slot = total mod cap *)
}

let default_capacity = 1 lsl 16

let fresh_ev () =
  { at = 0.0; kind = Send; proc = -1; peer = -1; tag = -1; seq = -1; bytes = 0;
    dur = 0.0; label = "" }

let create ?(capacity = default_capacity) () =
  let cap = max 1 capacity in
  { cap; buf = Array.make cap (fresh_ev ()); total = 0 }

let total t = t.total
let length t = min t.total t.cap
let dropped t = max 0 (t.total - t.cap)

let copy_ev e =
  { at = e.at; kind = e.kind; proc = e.proc; peer = e.peer; tag = e.tag;
    seq = e.seq; bytes = e.bytes; dur = e.dur; label = e.label }

let emit t ~kind ~at ~proc ?(peer = -1) ?(tag = -1) ?(seq = -1) ?(bytes = 0)
    ?(dur = 0.0) ?(label = "") () =
  let i = t.total mod t.cap in
  if t.total < t.cap then t.buf.(i) <- fresh_ev ();
  let e = t.buf.(i) in
  e.at <- at;
  e.kind <- kind;
  e.proc <- proc;
  e.peer <- peer;
  e.tag <- tag;
  e.seq <- seq;
  e.bytes <- bytes;
  e.dur <- dur;
  e.label <- label;
  t.total <- t.total + 1

(* Chronological iteration over the retained window.  The record handed
   to [f] is the ring's own slot: read it, do not retain it. *)
let iter t f =
  let start = max 0 (t.total - t.cap) in
  for k = start to t.total - 1 do
    f t.buf.(k mod t.cap)
  done

let to_list t =
  let out = ref [] in
  iter t (fun e -> out := copy_ev e :: !out);
  List.rev !out

let fold t init f =
  let acc = ref init in
  iter t (fun e -> acc := f !acc e);
  !acc

let count t ~kind = fold t 0 (fun n e -> if e.kind = kind then n + 1 else n)

let pp_ev ppf e =
  let us = e.at *. 1e6 in
  match e.kind with
  | Send ->
    Fmt.pf ppf "%10.1f us  send        p%d -> p%d  tag %d seq %d  %d bytes" us
      e.proc e.peer e.tag e.seq e.bytes
  | Recv ->
    Fmt.pf ppf "%10.1f us  recv        p%d <- p%d  tag %d  (waited %.1f us)" us
      e.proc e.peer e.tag (e.dur *. 1e6)
  | Block ->
    Fmt.pf ppf "%10.1f us  block       p%d on p%d tag %d" us e.proc e.peer e.tag
  | Wake -> Fmt.pf ppf "%10.1f us  wake        p%d by p%d tag %d" us e.proc e.peer e.tag
  | Coll_enter ->
    Fmt.pf ppf "%10.1f us  coll-enter  p%d site %d (%s)  waits %.1f us" us e.proc
      e.tag e.label (e.dur *. 1e6)
  | Coll_exit ->
    Fmt.pf ppf "%10.1f us  coll-exit   p%d site %d (%s)  %d bytes" us e.proc e.tag
      e.label e.bytes
  | Guard_skip -> Fmt.pf ppf "%10.1f us  guard-skip  p%d" us e.proc
  | Remap ->
    Fmt.pf ppf "%10.1f us  remap       %s  p%d -> p%d  %d bytes" us e.label e.proc
      e.peer e.bytes
  | Span ->
    Fmt.pf ppf "%10.3f ms  span        %s  %.3f ms" (e.at *. 1e3) e.label
      (e.dur *. 1e3)

let pp ppf t = iter t (fun e -> Fmt.pf ppf "%a@." pp_ev e)
