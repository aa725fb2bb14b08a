(* fdc: the Fortran D compiler driver.

   Subcommands:
     fdc ast <file>        - dump the parsed and checked program
     fdc acg <file>        - dump the augmented call graph
     fdc spmd <file>       - compile and print the SPMD node program
     fdc run <file>        - compile, simulate, verify, print statistics
     fdc check <file>      - static communication verification, no simulation
     fdc cost <file>       - static communication-cost & critical-path prediction
     fdc passes <file>     - run the pass pipeline, print per-pass timings
*)

open Cmdliner
module Diag = Fd_support.Diag
module Totality = Fd_core.Totality

(* Source registry: every file read through the CLI is remembered so a
   diagnostic citing it can render a caret/underline snippet. *)
let sources : (string, string) Hashtbl.t = Hashtbl.create 4

let read_file path =
  (* an unreadable input is the user's problem (exit 2), not a crash *)
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s ->
    Hashtbl.replace sources path s;
    s
  | exception Sys_error msg -> Diag.error "cannot read %s: %s" path msg

let pp_diag ppf d =
  Fmt.pf ppf "%s@." (Diag.to_string d);
  match Hashtbl.find_opt sources d.Diag.loc.Fd_support.Loc.file with
  | Some src -> Diag.pp_snippet ~src ppf d
  | None -> ()

let strategy_conv =
  Arg.enum
    [ ("interproc", Fd_core.Options.Interproc);
      ("immediate", Fd_core.Options.Immediate);
      ("runtime", Fd_core.Options.Runtime_resolution) ]

let remap_conv =
  Arg.enum
    [ ("none", Fd_core.Options.Remap_none); ("live", Fd_core.Options.Remap_live);
      ("hoist", Fd_core.Options.Remap_hoist); ("kill", Fd_core.Options.Remap_kill) ]

let file_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

(* Processor counts below 1 are usage errors (exit 124), not compiles. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Fmt.str "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Fmt.int)

let nprocs_arg =
  Arg.(value & opt positive_int 4 & info [ "p"; "nprocs" ] ~doc:"Number of logical processors")

let strategy_arg =
  Arg.(value & opt strategy_conv Fd_core.Options.Interproc
       & info [ "s"; "strategy" ] ~doc:"Compilation strategy")

let remap_arg =
  Arg.(value & opt remap_conv Fd_core.Options.Remap_kill
       & info [ "remap" ] ~doc:"Dynamic-decomposition optimization level")

let collectives_arg =
  Arg.(value & flag & info [ "no-collectives" ] ~doc:"Expand broadcasts to sends")

let trace_arg =
  Arg.(value & flag
       & info [ "trace" ]
           ~doc:"Print the event timeline: compiler pass spans, then the \
                 simulator's messages and collectives")

let no_agg_arg =
  Arg.(value & flag & info [ "no-aggregation" ] ~doc:"Disable message aggregation")

let opts_of ?(no_agg = false) nprocs strategy remap no_coll =
  { Fd_core.Options.nprocs; strategy; remap_level = remap;
    use_collectives = not no_coll; aggregate_messages = not no_agg }

let strict_arg =
  Arg.(value & flag
       & info [ "strict" ]
           ~doc:"Treat warnings (compiler diagnostics, check findings) as \
                 failures: nonzero exit when any are produced")

(* Total-pipeline discipline: every subcommand body runs under
   [Totality.protect] with a fresh per-run diagnostic sink, then maps
   onto the documented exit-code table — 0 success, 1 check/verification
   failure, 2 compile diagnostics, 3 simulation error, 4 contained
   internal crash.  Nothing escapes as a bare OCaml backtrace.

   The fresh sink keeps consecutive [wrap_code] calls in one process
   from seeing each other's warnings, and is the shape a future
   [fdc serve] needs. *)
let wrap_code ?(strict = false) ?(json = false) f =
  let sink = Diag.sink () in
  let outcome = Totality.protect (fun () -> f sink) in
  let warnings = Diag.take_warnings_of sink in
  List.iter (fun w -> Fmt.epr "%a" pp_diag w) warnings;
  match outcome with
  | Totality.Exit code ->
    if code = 0 && strict && warnings <> [] then Totality.check_failed else code
  | Totality.Diagnostics ds ->
    let ds = Diag.sort ds in
    if json then
      Fmt.pr "%s@." (Fd_support.Json.to_string (Diag.report_json ds))
    else List.iter (fun d -> Fmt.epr "%a" pp_diag d) ds;
    Totality.compile_failed
  | Totality.Sim_failed msg ->
    Fmt.epr "simulation failed: %s@." msg;
    Totality.sim_failed
  | Totality.Crash c ->
    if json then
      Fmt.pr "%s@." (Fd_support.Json.to_string (Totality.crash_to_json c));
    Fmt.epr "%a" Totality.pp_crash c;
    Totality.crashed

let wrap f = wrap_code (fun sink -> f sink; 0)

(* --- resource budgets (fdc run / fdc check / fdc fuzz) ------------------ *)

let budget_steps_arg =
  Arg.(value & opt (some int) None
       & info [ "budget-steps" ] ~docv:"N"
           ~doc:"Stop the simulation/analysis gracefully after N work steps \
                 and report the partial result")

let budget_events_arg =
  Arg.(value & opt (some int) None
       & info [ "budget-events" ] ~docv:"N"
           ~doc:"Stop gracefully after N communication events")

let budget_wall_arg =
  Arg.(value & opt (some float) None
       & info [ "budget-wall" ] ~docv:"SECONDS"
           ~doc:"Stop gracefully after this much wall-clock time")

let budget_of steps events wall =
  if steps = None && events = None && wall = None then None
  else Some (Fd_support.Budget.make ?steps ?events ?wall ())

let ast_cmd =
  let run file =
    wrap (fun _sink ->
        let cp = Fd_core.Driver.check_source ~file (read_file file) in
        List.iter
          (fun cu -> Fmt.pr "%a@." Fd_frontend.Ast_printer.pp_punit cu.Fd_frontend.Sema.unit_)
          cp.Fd_frontend.Sema.units)
  in
  Cmd.v (Cmd.info "ast" ~doc:"Parse, check and print the program")
    Term.(const run $ file_arg)

let acg_cmd =
  let run file =
    wrap (fun sink ->
        let cp = Fd_core.Driver.check_source ~file (read_file file) in
        let acg = (Fd_core.Driver.clone ~sink cp).Fd_core.Cloning.acg in
        Fmt.pr "%a@." Fd_callgraph.Acg.pp acg;
        Fmt.pr "topological order: %s@."
          (String.concat " -> " (Fd_callgraph.Acg.topo_order acg)))
  in
  Cmd.v (Cmd.info "acg" ~doc:"Print the augmented call graph")
    Term.(const run $ file_arg)

let spmd_cmd =
  let run file nprocs strategy remap no_coll =
    wrap (fun sink ->
        let opts = opts_of nprocs strategy remap no_coll in
        let compiled =
          Fd_core.Driver.compile_source ~sink ~opts ~file (read_file file)
        in
        Fmt.pr "%a@." Fd_machine.Node.pp_program compiled.Fd_core.Codegen.program)
  in
  Cmd.v (Cmd.info "spmd" ~doc:"Compile and print the SPMD node program")
    Term.(const run $ file_arg $ nprocs_arg $ strategy_arg $ remap_arg $ collectives_arg)

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON")

(* Serialize a structured trace as Chrome trace_event JSON. *)
let write_chrome_trace ~nprocs tr path =
  let oc = open_out path in
  output_string oc
    (Fd_support.Json.to_string (Fd_trace.Export.chrome ~nprocs tr));
  output_char oc '\n';
  close_out oc;
  Fmt.pr "trace: %d events (%d dropped) -> %s@." (Fd_trace.Trace.total tr)
    (Fd_trace.Trace.dropped tr) path

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Record a structured event trace and write it as Chrome \
                 trace_event JSON (load in Perfetto)")

let run_cmd =
  let run file nprocs strategy remap no_coll trace no_agg
      json trace_out bsteps bevents bwall strict =
    wrap_code ~strict ~json (fun sink ->
        let opts = opts_of ~no_agg nprocs strategy remap no_coll in
        let tr =
          if trace || trace_out <> None then Some (Fd_trace.Trace.create ())
          else None
        in
        let machine =
          Fd_machine.Config.make ~nprocs ?trace:tr ()
        in
        let r =
          Fd_core.Driver.run_source ~sink ~opts ~machine ?tracer:tr
            ?budget:(budget_of bsteps bevents bwall) ~file (read_file file)
        in
        (match (trace_out, tr) with
        | Some path, Some tr -> write_chrome_trace ~nprocs tr path
        | _ -> ());
        if json then begin
          let stats_fields =
            match Fd_machine.Stats.to_json r.Fd_core.Driver.stats with
            | Fd_support.Json.Obj fields -> fields
            | other -> [ ("stats", other) ]
          in
          let j =
            Fd_support.Json.Obj
              (stats_fields
              @ [ ("verified", Fd_support.Json.Bool (Fd_core.Driver.verified r));
                  ( "mismatches",
                    Fd_support.Json.Int (List.length r.Fd_core.Driver.mismatches) );
                  ( "partial",
                    match r.Fd_core.Driver.partial with
                    | Some reason -> Fd_support.Json.Str reason
                    | None -> Fd_support.Json.Null );
                  ("speedup", Fd_support.Json.Float (Fd_core.Driver.speedup r)) ])
          in
          Fmt.pr "%s@." (Fd_support.Json.to_string j)
        end
        else begin
          (match tr with
          | Some tr when trace ->
            if Fd_trace.Trace.dropped tr > 0 then
              Fmt.pr "(%d earlier events dropped: the trace ring holds the \
                      newest %d)@."
                (Fd_trace.Trace.dropped tr) (Fd_trace.Trace.length tr);
            Fmt.pr "%a" Fd_trace.Trace.pp tr
          | _ -> ());
          Fmt.pr "%a@." Fd_machine.Stats.pp r.Fd_core.Driver.stats;
          List.iter (Fmt.pr "output: %s@.")
            (Fd_machine.Stats.outputs r.Fd_core.Driver.stats);
          match r.Fd_core.Driver.partial with
          | Some reason ->
            Fmt.pr
              "simulation stopped early: %s; the statistics above are a \
               prefix and verification was skipped@."
              reason
          | None ->
          if Fd_core.Driver.verified r then Fmt.pr "verification: OK@."
          else begin
            Fmt.pr "verification FAILED (%d mismatches):@."
              (List.length r.Fd_core.Driver.mismatches);
            List.iteri
              (fun i m ->
                if i < 10 then Fmt.pr "  %a@." Fd_machine.Gather.pp_mismatch m)
              r.Fd_core.Driver.mismatches;
            if not r.Fd_core.Driver.outputs_match then begin
              Fmt.pr "  PRINT output differs from the sequential run, which prints:@.";
              List.iter (Fmt.pr "  output: %s@.")
                r.Fd_core.Driver.seq.Fd_machine.Seq_interp.outputs
            end
          end
        end;
        if Fd_core.Driver.verified r then 0 else 1)
  in
  Cmd.v (Cmd.info "run" ~doc:"Compile, simulate and verify")
    Term.(const run $ file_arg $ nprocs_arg $ strategy_arg $ remap_arg
          $ collectives_arg $ trace_arg $ no_agg_arg $ json_arg $ trace_out_arg
          $ budget_steps_arg $ budget_events_arg $ budget_wall_arg $ strict_arg)

(* --- fdc trace: ensemble tracing & metrics ------------------------------ *)

let trace_cmd =
  let run file nprocs strategy remap no_coll cap out matrix
      summary skeleton metrics strict =
    wrap_code ~strict (fun sink ->
        let opts = opts_of nprocs strategy remap no_coll in
        let tr = Fd_trace.Trace.create ~capacity:cap () in
        let machine = Fd_machine.Config.make ~nprocs ~trace:tr () in
        let r =
          Fd_core.Driver.run_source ~sink ~opts ~machine ~tracer:tr ~file
            (read_file file)
        in
        let stats = r.Fd_core.Driver.stats in
        let default =
          out = None && not matrix && not summary && not skeleton && not metrics
        in
        (match out with
        | Some path -> write_chrome_trace ~nprocs tr path
        | None -> ());
        if skeleton then begin
          Fmt.pr "# %s strategy=%s P=%d@." (Filename.basename file)
            (Fd_core.Options.strategy_name strategy)
            nprocs;
          List.iter (Fmt.pr "%s@.") (Fd_trace.Export.skeleton tr)
        end;
        if default then Fmt.pr "%a" Fd_trace.Trace.pp tr;
        if matrix then
          Fmt.pr "%a" Fd_trace.Export.pp_matrix (Fd_trace.Export.matrix ~nprocs tr);
        if summary then
          Fmt.pr "%a" Fd_trace.Export.pp_summary
            (Fd_trace.Export.summary ~nprocs ~busy:stats.Fd_machine.Stats.busy
               ~elapsed:(Fd_machine.Stats.elapsed stats) tr);
        if metrics then begin
          let m = Fd_machine.Stats.to_metrics stats in
          Fd_trace.Export.observe m tr;
          Fmt.pr "%s@." (Fd_support.Json.to_string (Fd_trace.Metrics.to_json m))
        end;
        if Fd_core.Driver.verified r then 0 else 1)
  in
  let cap_arg =
    Arg.(value & opt int Fd_trace.Trace.default_capacity
         & info [ "cap" ] ~docv:"N"
             ~doc:"Trace ring capacity in events; the oldest events are \
                   overwritten beyond it")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the trace as Chrome trace_event JSON (load in \
                   Perfetto or chrome://tracing)")
  in
  let matrix_arg =
    Arg.(value & flag
         & info [ "matrix" ] ~doc:"Print the per-(src,dest) communication matrix")
  in
  let summary_arg =
    Arg.(value & flag
         & info [ "summary" ]
             ~doc:"Print per-processor sends/recvs/bytes/blocked-time/utilization")
  in
  let skeleton_arg =
    Arg.(value & flag
         & info [ "skeleton" ]
             ~doc:"Print the normalized communication skeleton (timestamps \
                   stripped) used by the golden-trace tests")
  in
  let metrics_arg =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Print the unified metrics registry (simulator counters plus \
                   trace-derived histograms) as JSON")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Compile, simulate and export a structured event trace: Chrome \
             trace_event JSON, communication matrix, per-processor summary, \
             normalized skeleton, or the event timeline (default)")
    Term.(const run $ file_arg $ nprocs_arg $ strategy_arg $ remap_arg
          $ collectives_arg $ cap_arg $ out_arg $ matrix_arg $ summary_arg
          $ skeleton_arg $ metrics_arg $ strict_arg)

(* --- fdc check: the static SPMD communication verifier ------------------ *)

(* One JSON envelope for the static-analysis subcommands ([fdc check
   --json], [fdc cost --json]): run identity, then the
   subcommand-specific statistics, the [partial] flag (the analysis did
   not cover the whole program exactly), and the findings report
   ([ok]/counts/[findings]). *)
let analysis_envelope ~file ~strategy ~nprocs ~stats ~partial findings =
  match Fd_verify.Finding.report_json findings with
  | Fd_support.Json.Obj fields ->
    Fd_support.Json.Obj
      (("file", Fd_support.Json.Str file)
       :: ( "strategy",
            Fd_support.Json.Str (Fd_core.Options.strategy_name strategy) )
       :: ("nprocs", Fd_support.Json.Int nprocs)
       :: ("partial", Fd_support.Json.Bool partial)
       :: (stats @ fields))
  | other -> other

let check_cmd =
  let run file nprocs strategy remap no_coll json bsteps bevents bwall strict =
    wrap_code ~strict ~json (fun sink ->
        let src = read_file file in
        let cp = Fd_core.Driver.check_source ~file src in
        let opts = opts_of nprocs strategy remap no_coll in
        let compiled = Fd_core.Driver.compile ~sink ~opts cp in
        let vr, unapplied =
          Fd_core.Driver.check ?budget:(budget_of bsteps bevents bwall) ~src cp
            compiled
        in
        List.iter
          (Fmt.epr "fdc check: !break directive %S did not apply@.")
          unapplied;
        let findings = vr.Fd_verify.Verify.findings in
        if json then
          Fmt.pr "%s@."
            (Fd_support.Json.to_string
               (analysis_envelope ~file ~strategy ~nprocs
                  ~stats:
                    [ ("visits", Fd_support.Json.Int vr.Fd_verify.Verify.visits);
                      ("events", Fd_support.Json.Int vr.Fd_verify.Verify.events) ]
                  ~partial:(not vr.Fd_verify.Verify.complete)
                  findings))
        else begin
          List.iter (fun f -> Fmt.pr "%a@." Fd_verify.Finding.pp f) findings;
          let e, w, i = Fd_verify.Finding.counts findings in
          Fmt.pr "check %s [%s, P=%d]: %d error(s), %d warning(s), %d info@."
            (Filename.basename file)
            (Fd_core.Options.strategy_name strategy)
            nprocs e w i
        end;
        Fd_verify.Verify.exit_code ~strict findings)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Statically verify the compiled SPMD communication (send/recv \
             matching, collective congruence, payload bounds) and lint the \
             Fortran D source, without running the simulator. The ensemble \
             is analyzed symbolically per interval of processors, so large \
             -p (65536 and beyond) costs the same as -p 4")
    Term.(const run $ file_arg $ nprocs_arg $ strategy_arg $ remap_arg
          $ collectives_arg $ json_arg $ budget_steps_arg $ budget_events_arg
          $ budget_wall_arg $ strict_arg)

(* --- fdc cost: the static communication-cost analyzer ------------------- *)

let cost_cmd =
  let run file nprocs strategy remap no_coll json by_loop critical_path
      no_profile oracle strict =
    wrap_code ~strict ~json (fun sink ->
        let src = read_file file in
        let cp = Fd_core.Driver.check_source ~file src in
        let opts = opts_of nprocs strategy remap no_coll in
        let compiled = Fd_core.Driver.compile ~sink ~opts cp in
        let c = Fd_core.Driver.cost ~profile:(not no_profile) cp compiled in
        let oracle_failures =
          if not oracle then []
          else begin
            (* differential self-check: a compute-free simulated run must
               report the same counters, and the same makespan when the
               prediction is exact *)
            let zcfg =
              { (Fd_core.Driver.machine_config opts) with
                Fd_machine.Config.flop = 0.0; mem_op = 0.0 }
            in
            let stats, _ =
              Fd_machine.Scheduler.run zcfg compiled.Fd_core.Codegen.program
            in
            let cmp what pred sim =
              if pred = sim then []
              else [ Fmt.str "%s: predicted %d, simulated %d" what pred sim ]
            in
            let mk = Fd_machine.Stats.elapsed stats in
            cmp "messages" c.Fd_verify.Cost.messages stats.Fd_machine.Stats.messages
            @ cmp "message_bytes" c.Fd_verify.Cost.message_bytes
                stats.Fd_machine.Stats.message_bytes
            @ cmp "bcasts" c.Fd_verify.Cost.bcasts stats.Fd_machine.Stats.bcasts
            @ cmp "bcast_bytes" c.Fd_verify.Cost.bcast_bytes
                stats.Fd_machine.Stats.bcast_bytes
            @ cmp "remaps" c.Fd_verify.Cost.remaps stats.Fd_machine.Stats.remaps
            @ cmp "remap_marks" c.Fd_verify.Cost.remap_marks
                stats.Fd_machine.Stats.remap_marks
            @ cmp "remap_bytes" c.Fd_verify.Cost.remap_bytes
                stats.Fd_machine.Stats.remap_bytes
            @
            if
              c.Fd_verify.Cost.exact
              && Float.abs (c.Fd_verify.Cost.makespan -. mk)
                 > 1e-9 *. Float.max 1.0 mk
            then
              [ Fmt.str "makespan: predicted %.9fs, simulated %.9fs"
                  c.Fd_verify.Cost.makespan mk ]
            else []
          end
        in
        if json then
          Fmt.pr "%s@."
            (Fd_support.Json.to_string
               (analysis_envelope ~file ~strategy ~nprocs
                  ~stats:
                    (match Fd_verify.Cost.to_json c with
                    | Fd_support.Json.Obj fields ->
                      (* nprocs already in the envelope *)
                      List.filter (fun (k, _) -> k <> "nprocs") fields
                    | other -> [ ("cost", other) ])
                  ~partial:(not c.Fd_verify.Cost.exact)
                  c.Fd_verify.Cost.findings))
        else begin
          Fmt.pr "@[<v>%a@]@?" Fd_verify.Cost.pp c;
          if critical_path then
            Fmt.pr "@[<v>%a@]@?" Fd_verify.Cost.pp_critical_path c;
          if by_loop then Fmt.pr "@[<v>%a@]@?" Fd_verify.Cost.pp_sites c;
          List.iter
            (fun f -> Fmt.pr "%a@." Fd_verify.Finding.pp f)
            c.Fd_verify.Cost.findings
        end;
        List.iter (Fmt.epr "cost oracle FAILED %s@.") oracle_failures;
        if oracle_failures <> [] then 1
        else Fd_verify.Verify.exit_code ~strict c.Fd_verify.Cost.findings)
  in
  let by_loop_arg =
    Arg.(value & flag
         & info [ "by-loop" ]
             ~doc:"Print per-source-statement cost attribution, most \
                   expensive first")
  in
  let critical_path_arg =
    Arg.(value & flag
         & info [ "critical-path" ]
             ~doc:"Print the chain of communication events that determines \
                   the predicted makespan")
  in
  let no_profile_arg =
    Arg.(value & flag
         & info [ "no-profile" ]
             ~doc:"Skip the sequential branch profile; data-dependent IF \
                   branches stay unresolved regions")
  in
  let oracle_arg =
    Arg.(value & flag
         & info [ "oracle" ]
             ~doc:"Also simulate under a compute-free cost model and fail \
                   (exit 1) unless the predicted counters match exactly")
  in
  Cmd.v
    (Cmd.info "cost"
       ~doc:"Statically predict the communication cost of the compiled SPMD \
             program: per-processor and total message counts and byte \
             volumes, broadcast/remap traffic, and the virtual-time makespan \
             with its critical path, without running the simulator. \
             Processors are analyzed symbolically per pid interval, so \
             large -p costs the same as -p 4")
    Term.(const run $ file_arg $ nprocs_arg $ strategy_arg $ remap_arg
          $ collectives_arg $ json_arg $ by_loop_arg $ critical_path_arg
          $ no_profile_arg $ oracle_arg $ strict_arg)

let passes_cmd =
  let run file nprocs strategy remap no_coll dump_after verify json strict =
    wrap_code ~strict ~json (fun sink ->
        let opts = opts_of nprocs strategy remap no_coll in
        let ctx =
          Fd_core.Pipeline.of_source ~sink ~opts ~file (read_file file)
        in
        let report = Fd_core.Pipeline.run ~verify ~dump_after ctx in
        if json then
          Fmt.pr "%s@."
            (Fd_support.Json.to_string (Fd_core.Pipeline.report_to_json report))
        else Fmt.pr "%a" Fd_core.Pipeline.pp_report report;
        if Fd_core.Pass.report_ok report then 0 else 1)
  in
  let dump_after_arg =
    Arg.(value & opt_all string []
         & info [ "dump-after" ] ~docv:"PASS"
             ~doc:"Print the named pass's artifact after it runs (repeatable)")
  in
  let verify_arg =
    Arg.(value & flag
         & info [ "verify-passes" ]
             ~doc:"Check every pass's invariants; non-zero exit on violation")
  in
  Cmd.v
    (Cmd.info "passes"
       ~doc:"Run the compilation pipeline, printing per-pass timings and artifact sizes")
    Term.(const run $ file_arg $ nprocs_arg $ strategy_arg $ remap_arg $ collectives_arg
          $ dump_after_arg $ verify_arg $ json_arg $ strict_arg)

let exports_cmd =
  let run file nprocs strategy remap no_coll =
    wrap (fun sink ->
        let opts = opts_of nprocs strategy remap no_coll in
        let compiled =
          Fd_core.Driver.compile_source ~sink ~opts ~file (read_file file)
        in
        let st = compiled.Fd_core.Codegen.state in
        Hashtbl.iter
          (fun _name ex -> Fmt.pr "%a@.@." Fd_core.Exports.pp ex)
          st.Fd_core.Codegen.exports)
  in
  Cmd.v
    (Cmd.info "exports"
       ~doc:"Print each procedure's export record (constraints, delayed communication, remaps)")
    Term.(const run $ file_arg $ nprocs_arg $ strategy_arg $ remap_arg $ collectives_arg)

let overlap_cmd =
  let run file nprocs =
    wrap (fun sink ->
        let cp = Fd_core.Driver.check_source ~file (read_file file) in
        let opts = { Fd_core.Options.default with Fd_core.Options.nprocs } in
        let rows = Fd_core.Overlap.analyze (Fd_core.Driver.compile ~sink ~opts cp) in
        List.iter (fun r -> Fmt.pr "%a@." Fd_core.Overlap.pp_row r) rows)
  in
  Cmd.v (Cmd.info "overlap" ~doc:"Overlap regions: estimated vs actual")
    Term.(const run $ file_arg $ nprocs_arg)

let recompile_cmd =
  let run before after =
    wrap (fun sink ->
        let procs, total =
          Fd_core.Recompile.after_edit ~sink ~before:(read_file before)
            ~after:(read_file after) ()
        in
        Fmt.pr "recompile %d of %d procedure(s)%s@." (List.length procs) total
          (if procs = [] then "" else ": " ^ String.concat ", " procs))
  in
  let after_arg = Arg.(required & pos 1 (some file) None & info [] ~docv:"AFTER") in
  Cmd.v
    (Cmd.info "recompile"
       ~doc:"Which procedures must recompile going from BEFORE to AFTER")
    Term.(const run $ file_arg $ after_arg)

let seq_cmd =
  let run file =
    wrap (fun _sink ->
        let cp = Fd_core.Driver.check_source ~file (read_file file) in
        let r = Fd_machine.Seq_interp.run cp in
        List.iter (Fmt.pr "output: %s@.") r.Fd_machine.Seq_interp.outputs;
        Fmt.pr "flops: %d, memory ops: %d, est. sequential time %.3f ms@."
          r.Fd_machine.Seq_interp.flops r.Fd_machine.Seq_interp.mem_ops
          (r.Fd_machine.Seq_interp.seq_time *. 1e3))
  in
  Cmd.v (Cmd.info "seq" ~doc:"Run the program sequentially (reference interpreter)")
    Term.(const run $ file_arg)

let partition_cmd =
  let run file nprocs strategy remap no_coll =
    wrap (fun sink ->
        let opts = opts_of nprocs strategy remap no_coll in
        let compiled =
          Fd_core.Driver.compile_source ~sink ~opts ~file (read_file file)
        in
        List.iter
          (fun d -> Fmt.pr "%-12s %a@." d.Fd_core.Codegen.d_proc Fd_core.Codegen.pp_decision d)
          (Fd_core.Codegen.decisions compiled))
  in
  Cmd.v
    (Cmd.info "partition"
       ~doc:"Print each loop's computation-partition decision (per-processor iteration sets)")
    Term.(const run $ file_arg $ nprocs_arg $ strategy_arg $ remap_arg $ collectives_arg)

let fuzz_cmd =
  let pp_verdict ppf = function
    | Fd_fuzz.Harness.Accepted -> Fmt.pf ppf "accepted (compiled and verified)"
    | Fd_fuzz.Harness.Rejected -> Fmt.pf ppf "rejected (located diagnostics)"
    | Fd_fuzz.Harness.Failed k ->
      Fmt.pf ppf "FAILED: %s (%s)"
        (Fd_fuzz.Harness.kind_name k)
        (Fd_fuzz.Harness.kind_detail k)
  in
  let run iters seed repro nprocs bsteps bevents bwall =
    wrap_code (fun _sink ->
        (* --budget-steps/--budget-events tighten the per-case budget;
           --budget-wall bounds the whole campaign (per-case wall stays
           at the default 2s) *)
        let budget =
          match (bsteps, bevents) with
          | None, None -> None
          | _ -> Some (Fd_support.Budget.make ?steps:bsteps ?events:bevents ~wall:2.0 ())
        in
        match repro with
        | Some case_seed ->
          let r = Fd_fuzz.Harness.repro ?budget ~nprocs case_seed in
          Fmt.pr "seed %d [%s]:@.%s@.@.%a@." case_seed
            (Fd_core.Options.strategy_name r.Fd_fuzz.Harness.r_strategy)
            r.Fd_fuzz.Harness.r_src pp_verdict r.Fd_fuzz.Harness.r_verdict;
          (match r.Fd_fuzz.Harness.r_shrunk with
          | Some shrunk -> Fmt.pr "shrunk reproducer:@.%s@." shrunk
          | None -> ());
          (match r.Fd_fuzz.Harness.r_verdict with
          | Fd_fuzz.Harness.Failed _ -> 1
          | _ -> 0)
        | None ->
          let rep =
            Fd_fuzz.Harness.campaign ?budget ?wall:bwall ~nprocs
              ~log:(Fmt.epr "fuzz: %s@.") ~iters ~seed ()
          in
          List.iter
            (fun (fl : Fd_fuzz.Harness.failure) ->
              Fmt.pr
                "FAIL seed %d: %s (%s); replay with `fdc fuzz --repro %d`; \
                 shrunk reproducer:@.%s@."
                fl.Fd_fuzz.Harness.f_seed fl.Fd_fuzz.Harness.f_kind
                fl.Fd_fuzz.Harness.f_detail fl.Fd_fuzz.Harness.f_seed
                fl.Fd_fuzz.Harness.f_src)
            rep.Fd_fuzz.Harness.failures;
          Fmt.pr
            "fuzz: %d cases in %.1fs (%.0f execs/sec), %d accepted, %d \
             rejected, %d failures@."
            rep.Fd_fuzz.Harness.iters rep.Fd_fuzz.Harness.elapsed
            rep.Fd_fuzz.Harness.execs_per_sec rep.Fd_fuzz.Harness.accepted
            rep.Fd_fuzz.Harness.rejected
            (List.length rep.Fd_fuzz.Harness.failures);
          if rep.Fd_fuzz.Harness.failures <> [] then 1 else 0)
  in
  let iters_arg =
    Arg.(value & opt int 100
         & info [ "iters" ] ~docv:"N" ~doc:"Number of fuzz cases to run")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Campaign base seed")
  in
  let repro_arg =
    Arg.(value & opt (some int) None
         & info [ "repro" ] ~docv:"SEED"
             ~doc:"Replay one case by its seed (printed by a failing \
                   campaign) instead of running a campaign")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential fuzzing of the total pipeline: seeded random \
             programs, token- and AST-level mutations producing ill-formed \
             variants, each case compiled and simulated under a resource \
             budget. No case may escape as an uncaught exception; rejections \
             must carry located diagnostics; accepted programs must verify \
             against sequential execution or be flagged by the static \
             checker. Failing cases are shrunk and replayable by seed")
    Term.(const run $ iters_arg $ seed_arg $ repro_arg $ nprocs_arg
          $ budget_steps_arg $ budget_events_arg $ budget_wall_arg)

let () =
  let doc = "mini-Fortran D interprocedural compiler and MIMD simulator" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "fdc" ~doc)
          [ ast_cmd; acg_cmd; spmd_cmd; run_cmd; trace_cmd; check_cmd; cost_cmd;
            passes_cmd; exports_cmd; overlap_cmd; recompile_cmd; seq_cmd;
            partition_cmd; fuzz_cmd ]))
