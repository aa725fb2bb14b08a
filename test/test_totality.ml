(* Totality of the pipeline: multi-error recovery, crash containment,
   resource budgets, the exit-code table, and the fuzz harness.

   The acceptance bar from the robustness issue, as unit tests:
   - a corpus file with several distinct frontend errors yields ALL of
     them from one check invocation;
   - an injected [failwith]-style site surfaces as a pass-attributed
     internal diagnostic (exit 4), never a bare backtrace;
   - exhausted budgets degrade to partial results, not aborts;
   - the CLI honours the documented exit-code table end to end;
   - a mini fuzz campaign runs with zero failures. *)

open Fd_support
open Fd_core
open Fd_machine

let check = Alcotest.check

let examples_dir =
  if Sys.file_exists "../examples" then "../examples" else "examples"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let bad file = Filename.concat (Filename.concat examples_dir "bad") file

(* --- multi-error recovery ----------------------------------------------- *)

(* All frontend errors of a file, batched by one check_source call.
   Without an explicit sink, parse and sema diagnostics accumulate and
   raise together as one [Compile_errors]. *)
let diags_of file =
  match Driver.check_source ~file (read_file file) with
  | _ -> Alcotest.failf "%s: expected compile errors" file
  | exception Diag.Compile_errors ds -> ds
  | exception Diag.Compile_error d -> [ d ]

let test_syntax_recovery () =
  let ds = diags_of (bad "bad_syntax.fd") in
  check Alcotest.bool "at least two syntax diagnostics" true
    (List.length ds >= 2);
  List.iter
    (fun (d : Diag.t) ->
      check Alcotest.bool "located" true (d.Diag.loc <> Loc.none))
    ds;
  let lines = List.map (fun (d : Diag.t) -> d.Diag.loc.Loc.line) ds in
  check Alcotest.bool "both error sites reported (lines 10 and 12)" true
    (List.mem 10 lines && List.mem 12 lines)

let test_sema_recovery () =
  let ds = diags_of (bad "bad_sema.fd") in
  check Alcotest.bool "at least three semantic diagnostics" true
    (List.length ds >= 3);
  let has needle =
    List.exists
      (fun (d : Diag.t) ->
        let msg = d.Diag.message in
        let len = String.length needle in
        let rec scan i =
          i + len <= String.length msg
          && (String.sub msg i len = needle || scan (i + 1))
        in
        scan 0)
      ds
  in
  check Alcotest.bool "rank mismatch reported" true (has "rank 2");
  check Alcotest.bool "undeclared array reported" true (has "unknown array");
  check Alcotest.bool "unknown subroutine reported" true
    (has "unknown subroutine")

(* --- crash containment --------------------------------------------------- *)

let test_protect_table () =
  (match Totality.protect (fun () -> 0) with
  | Totality.Exit 0 -> ()
  | o -> Alcotest.failf "expected Exit 0, got code %d" (Totality.code o));
  let d = Diag.make Diag.Error Loc.none "boom" in
  (match Totality.protect (fun () -> raise (Diag.Compile_error d)) with
  | Totality.Diagnostics [ _ ] as o ->
    check Alcotest.int "compile error -> exit 2" Totality.compile_failed
      (Totality.code o)
  | _ -> Alcotest.fail "expected Diagnostics");
  (match
     Totality.protect (fun () -> raise (Diag.Compile_errors [ d; d; d ]))
   with
  | Totality.Diagnostics ds ->
    check Alcotest.int "all batched diagnostics survive protect" 3
      (List.length ds)
  | _ -> Alcotest.fail "expected Diagnostics");
  (match Totality.protect (fun () -> raise (Storage.Runtime_error "mod by zero")) with
  | Totality.Sim_failed msg as o ->
    check Alcotest.string "sequential fault message" "runtime error: mod by zero" msg;
    check Alcotest.int "sequential fault -> exit 3" Totality.sim_failed (Totality.code o)
  | _ -> Alcotest.fail "expected Sim_failed");
  match
    Totality.protect (fun () ->
        raise (Scheduler.Sim_error (Scheduler.Runtime_error "blew up")))
  with
  | Totality.Sim_failed _ as o ->
    check Alcotest.int "sim error -> exit 3" Totality.sim_failed
      (Totality.code o)
  | _ -> Alcotest.fail "expected Sim_failed"

(* The acceptance criterion: an injected internal failure (the converted
   failwith/assert-false idiom) is contained as a pass-attributed crash
   report with exit code 4. *)
let test_injected_internal () =
  (match
     Totality.protect (fun () -> Diag.internal ~pass:"codegen" "injected bug")
   with
  | Totality.Crash c as o ->
    check (Alcotest.option Alcotest.string) "attributed to its pass"
      (Some "codegen") c.Totality.c_pass;
    check Alcotest.bool "message survives" true
      (c.Totality.c_message = "injected bug");
    check Alcotest.int "crash -> exit 4" Totality.crashed (Totality.code o);
    (* the report must render without raising *)
    ignore (Fmt.str "%a" Totality.pp_crash c);
    ignore (Json.to_string (Totality.crash_to_json c))
  | _ -> Alcotest.fail "expected Crash");
  match Totality.protect (fun () -> failwith "residual raise") with
  | Totality.Crash c ->
    check (Alcotest.option Alcotest.string) "residual raise has no pass" None
      c.Totality.c_pass
  | _ -> Alcotest.fail "expected Crash"

(* --- resource budgets ---------------------------------------------------- *)

let test_budget_ticks () =
  let st = Budget.start (Budget.make ~steps:10 ()) in
  check Alcotest.bool "within budget" true (Budget.tick_step st 10);
  check Alcotest.bool "over budget" false (Budget.tick_step st 1);
  check Alcotest.bool "latched" false (Budget.tick_step st 0);
  (match Budget.exhausted st with
  | Some r ->
    check Alcotest.bool "reason names the cap" true
      (r = "step budget exhausted (10)")
  | None -> Alcotest.fail "expected an exhaustion reason");
  let ev = Budget.start (Budget.make ~events:2 ()) in
  check Alcotest.bool "events within" true (Budget.tick_event ev 2);
  check Alcotest.bool "events over" false (Budget.tick_event ev 1);
  let free = Budget.start (Budget.make ()) in
  check Alcotest.bool "unlimited never trips" true
    (Budget.tick_step free 1_000_000)

let jacobi = Filename.concat examples_dir "jacobi1d.fd"

let test_budget_partial_run () =
  let src = read_file jacobi in
  (* Tiny budget: the simulation must stop early with a partial result,
     not raise — and the full run must not be partial. *)
  let r =
    Driver.run_source ~budget:(Budget.make ~steps:50 ()) ~file:jacobi src
  in
  (match r.Driver.partial with
  | Some reason ->
    check Alcotest.bool "reason mentions the step cap" true
      (reason = "step budget exhausted (50)")
  | None -> Alcotest.fail "expected a partial result");
  check Alcotest.bool "partial run still counts as verified" true
    (Driver.verified r);
  let full = Driver.run_source ~file:jacobi src in
  check (Alcotest.option Alcotest.string) "unbudgeted run is complete" None
    full.Driver.partial

let test_budget_partial_check () =
  let src = read_file jacobi in
  let compiled = Driver.compile_source ~file:jacobi src in
  let vr =
    Fd_verify.Verify.check_node
      ~budget:(Budget.make ~steps:5 ())
      ~nprocs:4 compiled.Codegen.program
  in
  check Alcotest.bool "budget exhaustion yields an Info finding" true
    (List.exists
       (fun (f : Fd_verify.Finding.t) ->
         f.Fd_verify.Finding.kind = "budget-exhausted"
         && f.Fd_verify.Finding.severity = Fd_verify.Finding.Info)
       vr.Fd_verify.Verify.findings);
  let full =
    Fd_verify.Verify.check_node ~nprocs:4 compiled.Codegen.program
  in
  check Alcotest.bool "unbudgeted check has no exhaustion finding" true
    (not
       (List.exists
          (fun (f : Fd_verify.Finding.t) ->
            f.Fd_verify.Finding.kind = "budget-exhausted")
          full.Fd_verify.Verify.findings))

(* --- the exit-code table, end to end ------------------------------------- *)

(* The test rule depends on the built binary; under [dune runtest] the
   cwd is _build/default/test, under [dune exec] the project root. *)
let fdc_exe =
  if Sys.file_exists "../bin/fdc.exe" then "../bin/fdc.exe"
  else "_build/default/bin/fdc.exe"

let run_fdc args = Sys.command (Fmt.str "%s %s >/dev/null 2>&1" fdc_exe args)

(* The lines [fdc args] writes to stderr. *)
let fdc_stderr args =
  let err = Filename.temp_file "fdc" ".err" in
  ignore (Sys.command (Fmt.str "%s %s >/dev/null 2>%s" fdc_exe args (Filename.quote err)));
  let lines = String.split_on_char '\n' (read_file err) in
  Sys.remove err;
  lines

(* A call with one actual too many: sema rejects it, so no later pass
   sees it. *)
let arity_source =
  "program p\n  integer k\n  k = 4\n  call half(k, 3)\nend\n\
   subroutine half(n)\n  integer n\n  n = n / 2\nend\n"

(* Programs that compile and fault when run: a store past the end of an
   array, and an integer division by zero. *)
let oob_source =
  "program oob\n  real a(10)\n  integer i\n  do i = 1, 11\n    a(i) = 1.0\n  enddo\n\
   \  print *, a(1)\nend\n"

let div0_source = "program div0\n  integer i, j\n  j = 0\n  i = 5 / j\n  print *, i\nend\n"

let with_temp_source src f =
  let file = Filename.temp_file "fault" ".fd" in
  Out_channel.with_open_bin file (fun oc -> output_string oc src);
  Fun.protect ~finally:(fun () -> Sys.remove file) (fun () -> f file)

let test_cli_exit_codes () =
  let ex name = Filename.concat examples_dir name in
  check Alcotest.int "check clean -> 0" 0 (run_fdc ("check " ^ ex "fig1.fd"));
  check Alcotest.int "spmd -> 0" 0 (run_fdc ("spmd " ^ ex "fig1.fd"));
  check Alcotest.int "spmd -p 0 -> 124" 124 (run_fdc ("spmd -p 0 " ^ ex "fig1.fd"));
  check Alcotest.int "run clean -> 0" 0 (run_fdc ("run " ^ ex "jacobi1d.fd"));
  check Alcotest.int "check finding -> 1" 1
    (run_fdc ("check --strict " ^ bad "bad_tag.fd"));
  check Alcotest.int "check syntax errors -> 2" 2
    (run_fdc ("check " ^ bad "bad_syntax.fd"));
  check Alcotest.int "check sema errors -> 2" 2
    (run_fdc ("check " ^ bad "bad_sema.fd"));
  check Alcotest.int "run on bad source -> 2" 2
    (run_fdc ("run " ^ bad "bad_sema.fd"));
  check Alcotest.(list string) "run reports check's located sema errors"
    (fdc_stderr ("check " ^ bad "bad_sema.fd"))
    (fdc_stderr ("run " ^ bad "bad_sema.fd"));
  let arity = Filename.temp_file "arity" ".fd" in
  Out_channel.with_open_bin arity (fun oc -> output_string oc arity_source);
  check Alcotest.int "run on an arity mismatch -> 2" 2 (run_fdc ("run " ^ arity));
  Sys.remove arity;
  (* a run-time fault is a simulation failure, not a compile diagnostic *)
  List.iter
    (fun (what, src) ->
      with_temp_source src (fun file ->
          List.iter
            (fun cmd ->
              check Alcotest.int (Fmt.str "%s on %s -> 3" cmd what) 3
                (run_fdc (cmd ^ " " ^ file)))
            [ "run"; "seq" ]))
    [ ("an out-of-bounds store", oob_source); ("a division by zero", div0_source) ];
  (* the network is reliable and compiled programs receive what they
     read, so no committed source fails in the simulator: a node program
     that deadlocks goes through the classification [fdc] exits by *)
  let module Ast = Fd_frontend.Ast in
  let recv src = Node.N_recv { src = Ast.Int_const src; tag = 1; loc = Loc.none } in
  let deadlock =
    { Node.n_main = "m"; n_nprocs = 2; n_common_arrays = []; n_common_scalars = [];
      n_procs =
        [ { Node.np_name = "m"; np_formals = []; np_arrays = []; np_scalars = [];
            np_body =
              [ Node.N_if
                  { cond = Ast.Bin (Ast.Eq, Ast.Funcall ("myproc", []), Ast.Int_const 0);
                    then_ = [ recv 1 ]; else_ = [ recv 0 ]; loc = Loc.none } ] } ] }
  in
  check Alcotest.int "simulation failure -> 3" 3
    (Totality.code
       (Totality.protect (fun () ->
            ignore (Scheduler.run (Config.ipsc860 ~nprocs:2 ()) deadlock);
            0)));
  check Alcotest.int "budgeted run stays 0 (partial, not abort)" 0
    (run_fdc ("run --budget-steps 50 " ^ ex "jacobi1d.fd"));
  check Alcotest.int "fuzz clean campaign -> 0" 0
    (run_fdc "fuzz --iters 3 --seed 1")

(* --- fuzz subsystem ------------------------------------------------------ *)

let test_mutate_deterministic () =
  let src = read_file jacobi in
  let m seed = Fd_fuzz.Mutate.mutate (Random.State.make [| seed |]) ~n:2 src in
  check Alcotest.string "same seed, same mutant" (m 42) (m 42);
  check Alcotest.bool "mutation changes the source" true (m 42 <> src)

let test_shrink () =
  let src = String.concat "\n" [ "aaa"; "bbb"; "NEEDLE"; "ccc"; "ddd" ] in
  let keep s =
    List.exists (fun l -> l = "NEEDLE") (String.split_on_char '\n' s)
  in
  let out = Fd_fuzz.Shrink.shrink ~keep src in
  check Alcotest.bool "failure preserved" true (keep out);
  check Alcotest.int "shrunk to the single relevant line" 1
    (List.length
       (List.filter
          (fun l -> String.trim l <> "")
          (String.split_on_char '\n' out)))

let test_gen_case_deterministic () =
  let s1, g1 = Fd_fuzz.Harness.gen_case 7 in
  let s2, g2 = Fd_fuzz.Harness.gen_case 7 in
  check Alcotest.string "seed fully determines the program" s1 s2;
  check Alcotest.bool "seed fully determines the strategy" true (g1 = g2)

(* A program whose sequential run faults too is rejected, not unsound. *)
let test_runtime_fault_rejected () =
  List.iter
    (fun strategy ->
      match Fd_fuzz.Harness.run_case ~nprocs:4 ~strategy oob_source with
      | Fd_fuzz.Harness.Rejected -> ()
      | Fd_fuzz.Harness.Accepted -> Alcotest.fail "an out-of-bounds store was accepted"
      | Fd_fuzz.Harness.Failed k ->
        Alcotest.failf "%s: %s" (Fd_fuzz.Harness.kind_name k) (Fd_fuzz.Harness.kind_detail k))
    [ Options.Interproc; Options.Immediate; Options.Runtime_resolution ]

let test_mini_campaign () =
  let r = Fd_fuzz.Harness.campaign ~iters:25 ~seed:101 () in
  check Alcotest.int "all cases executed" 25 r.Fd_fuzz.Harness.iters;
  check Alcotest.int "classified exhaustively" 25
    (r.Fd_fuzz.Harness.accepted + r.Fd_fuzz.Harness.rejected);
  (match r.Fd_fuzz.Harness.failures with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "seed %d: %s (%s)\n%s" f.Fd_fuzz.Harness.f_seed
      f.Fd_fuzz.Harness.f_kind f.Fd_fuzz.Harness.f_detail
      f.Fd_fuzz.Harness.f_src);
  check Alcotest.bool "throughput measured" true
    (r.Fd_fuzz.Harness.execs_per_sec > 0.0)

let suite =
  [
    Alcotest.test_case "syntax recovery: all errors in one run" `Quick
      test_syntax_recovery;
    Alcotest.test_case "sema recovery: all errors in one run" `Quick
      test_sema_recovery;
    Alcotest.test_case "protect classifies every escape" `Quick
      test_protect_table;
    Alcotest.test_case "injected internal error is contained" `Quick
      test_injected_internal;
    Alcotest.test_case "budget tick semantics" `Quick test_budget_ticks;
    Alcotest.test_case "budgeted simulation degrades to partial" `Quick
      test_budget_partial_run;
    Alcotest.test_case "budgeted verification degrades to Info" `Quick
      test_budget_partial_check;
    Alcotest.test_case "CLI exit-code table" `Slow test_cli_exit_codes;
    Alcotest.test_case "mutators are seed-deterministic" `Quick
      test_mutate_deterministic;
    Alcotest.test_case "shrinker minimizes while preserving failure" `Quick
      test_shrink;
    Alcotest.test_case "gen_case is seed-deterministic" `Quick
      test_gen_case_deterministic;
    Alcotest.test_case "mini fuzz campaign is clean" `Slow test_mini_campaign;
    Alcotest.test_case "a run-time fault is rejected" `Quick test_runtime_fault_rejected;
  ]
