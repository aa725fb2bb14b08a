(** The compiler as an explicit, ordered pass pipeline.

    The whole compile is modeled as the pass list

    {v parse -> sema -> acg -> reaching_decomps -> side_effects
       -> cloning -> local_summaries -> codegen v}

    over a shared {!Pass.ctx}.  Each pass is named, timed, can render
    its artifact ([--dump-after]) and can check invariants over the
    context ([--verify-passes]).  {!Driver} and {!Recompile} are built
    on this runner; it is the only way to compile.

    The order is the paper's (ACG -> reaching decompositions ->
    cloning).  Cloning works on the checked program and, when it splits
    a procedure, replaces the context's ACG, reaching decompositions
    and side effects with those of the cloned program, which the later
    passes read. *)

val passes : Pass.t list
(** The standard pipeline, in execution order. *)

val pass_names : string list

val find_pass : string -> Pass.t option

val of_source :
  ?sink:Fd_support.Diag.sink -> ?opts:Options.t -> ?file:string -> string ->
  Pass.ctx
(** A fresh context that will run every pass, starting from source
    text.  [?sink] is the per-run diagnostic sink (default: a fresh
    one); the [sema] pass raises everything
    accumulated by parse + sema as one
    {!Fd_support.Diag.Compile_errors} batch. *)

val of_checked :
  ?sink:Fd_support.Diag.sink -> ?opts:Options.t ->
  Fd_frontend.Sema.checked_program -> Pass.ctx
(** A context seeded with an already-checked program: the [parse] and
    [sema] passes become no-ops. *)

val run :
  ?verify:bool ->
  ?tracer:Fd_trace.Trace.t ->
  ?dump_after:string list ->
  ?dump:(pass:string -> string -> unit) ->
  Pass.ctx ->
  Pass.report
(** Run every pass in order over the context.  [verify] runs each
    pass's invariant checker and records the result in the report
    (default: off — checkers cost time).  After a pass named in
    [dump_after] completes, its rendered artifact is handed to [dump]
    (default: print to stdout).  Unknown names in [dump_after] raise
    {!Fd_support.Diag.Compile_error}.  A [tracer] receives one
    {!Fd_trace.Trace.Span} event per pass (wall-clock, relative to the
    pipeline start), reusing the timings already taken for the report.
    @raise Fd_support.Diag.Compile_error as the underlying phases do. *)

val run_pass :
  ?verify:bool -> ?tracer:Fd_trace.Trace.t -> ?epoch:float -> Pass.t ->
  Pass.ctx -> Pass.entry
(** Run (and optionally verify) a single pass — the building block of
    {!run}, exposed for tests and tools that drive passes manually.
    Span timestamps are relative to [epoch] (default: the pass's own
    start, i.e. [at = 0]). *)

val report_to_json : Pass.report -> Fd_support.Json.t
(** [{"passes": [{"name", "ms", "size", "invariants", "violations"}, ...],
     "total_ms", "ok"}] *)

val pp_report : Format.formatter -> Pass.report -> unit
(** The [fdc passes] table: one line per pass plus a total. *)
