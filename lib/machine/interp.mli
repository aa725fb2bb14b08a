(** Interpreter for SPMD node programs.  A node program is compiled once
    per run through the shared resolved evaluator {!Eval}; each logical
    processor runs that code over its own frames, storage and counters,
    performing {!Eff} effects for time, messages, collectives, and
    output; the {!Scheduler} coordinates the ensemble. *)

exception Runtime_error of string
(** A located run-time fault of the node program, such as a message
    peer outside [0..P-1]; the scheduler reports it as
    [Scheduler.Runtime_error]. *)

type binding = Eval.binding = Bscalar of Fd_frontend.Value.t ref | Barray of Storage.array_obj

type frame = (string, binding) Hashtbl.t

type code
(** A compiled node program, shared by every processor of a run. *)

val compile : Node.program -> code

val frames : Node.program -> (string * string list * (string -> string)) list
(** For tests: per node procedure, its name, the names its frame binds
    once its body is compiled, and {!Eval.slot_kind}. *)

type t

val create : proc:int -> config:Config.t -> stats:Stats.t -> code -> t
(** One processor's interpreter: its own frames, storage and pending
    compute time over the shared [code]; counters go to [stats].
    Intrinsics include [myproc()], [nprocs()], the compile-time table
    select [tab$], and the run-time ownership query [owner$]. *)

val run_main : t -> frame
(** Execute this processor's copy of the main node program; returns the
    main frame (COMMON included) so the driver can gather final array
    contents. *)
