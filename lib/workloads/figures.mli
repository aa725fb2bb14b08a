(** The paper's worked examples as parameterized mini-Fortran-D sources.
    Feed any of these to {!Fd_core.Driver.run_source}. *)

val fig1 : ?n:int -> ?shift:int -> unit -> string
(** Figure 1: the block-distributed shift kernel computed inside a called
    procedure (compiles to the paper's Figure 2 under [Interproc], to
    Figure 3 under [Runtime_resolution]). *)

val fig4 : ?n:int -> ?shift:int -> unit -> string
(** Figure 4: one procedure called with row- and column-distributed
    actuals — exercises cloning plus cross-procedure message
    vectorization (Figures 10 vs 12). *)

val fig15 : ?n:int -> ?t:int -> unit -> string
(** Figure 15: dynamic data decomposition with the full Figure-16
    optimization ladder (4T+2 / 2T+2 / 4 / 2+2 mark-only remaps). *)
