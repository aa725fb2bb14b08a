(* Execution statistics for a simulated run. *)

type t = {
  nprocs : int;
  mutable messages : int;        (* point-to-point messages *)
  mutable message_bytes : int;
  mutable bcasts : int;
  mutable bcast_bytes : int;
  mutable remaps : int;          (* physical remap operations *)
  mutable remap_marks : int;     (* mark-only remaps (array-kill opt) *)
  mutable remap_bytes : int;
  mutable flops : int;
  mutable mem_ops : int;
  mutable storage_bytes : int;   (* bytes of the pages processors materialized *)
  mutable max_wait : float;      (* longest single receive wait, seconds *)
  clocks : float array;          (* per-processor virtual time, seconds *)
  busy : float array;            (* per-processor compute time *)
  mutable outputs : (int * string) list;  (* (proc, line), reversed *)
}

let create nprocs =
  { nprocs; messages = 0; message_bytes = 0; bcasts = 0; bcast_bytes = 0;
    remaps = 0; remap_marks = 0; remap_bytes = 0; flops = 0; mem_ops = 0;
    storage_bytes = 0; max_wait = 0.0; clocks = Array.make nprocs 0.0;
    busy = Array.make nprocs 0.0; outputs = [] }

let elapsed t = Array.fold_left max 0.0 t.clocks

let total_busy t = Array.fold_left ( +. ) 0.0 t.busy

(* Total communication operations: each p2p message plus each broadcast. *)
let comm_ops t = t.messages + t.bcasts

let outputs t = List.rev_map snd t.outputs

let to_json t : Fd_support.Json.t =
  let farr a = Fd_support.Json.List (Array.to_list (Array.map (fun x -> Fd_support.Json.Float x) a)) in
  Fd_support.Json.Obj
    [ ("nprocs", Int t.nprocs);
      ("messages", Int t.messages);
      ("message_bytes", Int t.message_bytes);
      ("bcasts", Int t.bcasts);
      ("bcast_bytes", Int t.bcast_bytes);
      ("remaps", Int t.remaps);
      ("remap_marks", Int t.remap_marks);
      ("remap_bytes", Int t.remap_bytes);
      ("flops", Int t.flops);
      ("mem_ops", Int t.mem_ops);
      ("storage_bytes", Int t.storage_bytes);
      ("elapsed", Float (elapsed t));
      ("total_busy", Float (total_busy t));
      ("max_wait", Float t.max_wait);
      ("comm_ops", Int (comm_ops t));
      ("clocks", farr t.clocks);
      ("busy", farr t.busy);
      ("outputs", List (List.map (fun s -> Fd_support.Json.Str s) (outputs t))) ]

(* One metrics registry per run: the same counters [to_json] reports,
   published through the Fd_trace.Metrics registry so simulator
   statistics, trace-derived histograms, and tool counters share one
   serialization. *)
let to_metrics t : Fd_trace.Metrics.t =
  let m = Fd_trace.Metrics.create () in
  let c name v = Fd_trace.Metrics.set_counter (Fd_trace.Metrics.counter m name) v in
  let g name v = Fd_trace.Metrics.set (Fd_trace.Metrics.gauge m name) v in
  c "nprocs" t.nprocs;
  c "messages" t.messages;
  c "message_bytes" t.message_bytes;
  c "bcasts" t.bcasts;
  c "bcast_bytes" t.bcast_bytes;
  c "remaps" t.remaps;
  c "remap_marks" t.remap_marks;
  c "remap_bytes" t.remap_bytes;
  c "flops" t.flops;
  c "mem_ops" t.mem_ops;
  c "storage_bytes" t.storage_bytes;
  c "comm_ops" (comm_ops t);
  g "elapsed_seconds" (elapsed t);
  g "busy_seconds" (total_busy t);
  g "max_wait_seconds" t.max_wait;
  m

let pp ppf t =
  Fmt.pf ppf
    "@[<v>elapsed %.3f ms on %d procs@ messages: %d (%d bytes), broadcasts: %d (%d bytes)@ remaps: %d physical (%d bytes) + %d mark-only@ flops: %d, memory ops: %d@ storage: %d bytes in materialized pages@]"
    (elapsed t *. 1e3) t.nprocs t.messages t.message_bytes t.bcasts t.bcast_bytes
    t.remaps t.remap_bytes t.remap_marks t.flops t.mem_ops t.storage_bytes
