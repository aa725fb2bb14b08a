(* Compiler options: which compilation strategy and optimization levels
   to apply.  The three strategies are the paper's comparison axes (see
   DESIGN.md section 4). *)

type strategy =
  | Interproc   (* full interprocedural compilation with delayed instantiation *)
  | Immediate   (* intraprocedural: decompositions known, no delaying (Fig. 12) *)
  | Runtime_resolution  (* ownership and communication resolved per element (Fig. 3) *)

type remap_level =
  | Remap_none   (* place all DecompBefore/After remaps naively (Fig. 16a) *)
  | Remap_live   (* + dead-remap elimination and coalescing (Fig. 16b) *)
  | Remap_hoist  (* + loop-invariant decomposition hoisting (Fig. 16c) *)
  | Remap_kill   (* + array kills: remap dead arrays in place (Fig. 16d) *)

type t = {
  nprocs : int;
  strategy : strategy;
  remap_level : remap_level;
  use_collectives : bool;  (* recognize one-owner/all-consumers broadcasts *)
  aggregate_messages : bool;  (* merge same-destination transfers into one message *)
}

let default = {
  nprocs = 4;
  strategy = Interproc;
  remap_level = Remap_kill;
  use_collectives = true;
  aggregate_messages = true;
}

let strategy_name = function
  | Interproc -> "interproc"
  | Immediate -> "immediate"
  | Runtime_resolution -> "runtime-resolution"

let remap_level_name = function
  | Remap_none -> "none"
  | Remap_live -> "live"
  | Remap_hoist -> "hoist"
  | Remap_kill -> "kill"
