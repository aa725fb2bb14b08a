(* Machine model for the MIMD distributed-memory simulator.

   The default numbers approximate the Intel iPSC/860 the paper's group
   reported against: ~75 us message startup, ~0.4 us per byte
   (~2.5 MB/s), and a few hundredths of a microsecond per arithmetic
   operation on the i860.  Times are in seconds. *)

type t = {
  nprocs : int;
  alpha : float;        (* message startup cost, seconds *)
  beta : float;         (* per-byte transfer cost, seconds *)
  flop : float;         (* per arithmetic-operation cost, seconds *)
  mem_op : float;       (* per load/store cost, seconds *)
  word_bytes : int;     (* bytes per REAL/INTEGER element *)
  faults : Fault.t option;  (* adversarial-network plan; None = reliable *)
  trace : Fd_trace.Trace.t option;  (* structured event sink; None = off *)
}

let ipsc860 ?(nprocs = 4) () = {
  nprocs;
  alpha = 75e-6;
  beta = 0.4e-6;
  flop = 0.05e-6;
  mem_op = 0.025e-6;
  word_bytes = 8;
  faults = None;
  trace = None;
}

let make ?flop ?mem_op ?faults ?trace ~nprocs () =
  let m = ipsc860 ~nprocs () in
  { m with
    flop = Option.value flop ~default:m.flop;
    mem_op = Option.value mem_op ~default:m.mem_op;
    faults; trace }

let slowdown t p = match t.faults with Some plan -> Fault.slowdown_for plan p | None -> 1.0

let message_cost t bytes = t.alpha +. (t.beta *. float_of_int bytes)

(* Broadcast of [bytes] from one root to all along a log tree. *)
let bcast_cost t bytes =
  if t.nprocs <= 1 then 0.0
  else
    let stages = int_of_float (Float.ceil (Float.log2 (float_of_int t.nprocs))) in
    float_of_int stages *. message_cost t bytes

let pp ppf t =
  Fmt.pf ppf "P=%d alpha=%.1fus beta=%.3fus/B flop=%.3fus" t.nprocs
    (t.alpha *. 1e6) (t.beta *. 1e6) (t.flop *. 1e6)
