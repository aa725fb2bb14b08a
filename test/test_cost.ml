(* Differential oracle for the static communication-cost analyzer.

   For every fault-free example under every strategy and at P in
   {4, 64}, [Cost.analyze] must predict, without simulating, the same
   message/broadcast/remap counters a simulated run reports — exactly,
   counter for counter — and, whenever the prediction carries no
   cost-model assumption ([exact]), the same virtual-time makespan as a
   compute-free ([flop = mem_op = 0]) simulated run.  Under the full
   cost model the makespan must be a lower bound on the simulated
   elapsed time.  A seeded sweep over the Gen workload generator
   extends the same contract to random programs. *)

open Fd_core
open Fd_machine
open Fd_verify

let check = Alcotest.check

let examples_dir =
  if Sys.file_exists "../examples" then "../examples" else "examples"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let strategies =
  [
    ("interproc", Options.Interproc);
    ("immediate", Options.Immediate);
    ("runtime", Options.Runtime_resolution);
  ]

let good_examples =
  [
    "fig1.fd"; "fig4.fd"; "fig15.fd"; "jacobi1d.fd"; "jacobi2d.fd";
    "redblack.fd"; "multi_array.fd"; "dgefa.fd"; "adi_dynamic.fd";
    "adi_static.fd";
  ]

(* Predict and simulate the same compiled program under a compute-free
   cost model; also return the full-model simulated elapsed time. *)
let face_off ~nprocs ~strategy (cp : Fd_frontend.Sema.checked_program) :
    Cost.t * Stats.t * float =
  let opts = { Options.default with strategy; nprocs } in
  let compiled = Driver.compile ~opts cp in
  let profile = Cost.profile_of_seq cp in
  let config = Driver.machine_config opts in
  let zcfg = { config with Config.flop = 0.0; mem_op = 0.0 } in
  let c = Cost.analyze ~profile ~config:zcfg compiled.Codegen.program in
  let stats, _ = Scheduler.run zcfg compiled.Codegen.program in
  let full_stats, _ = Scheduler.run config compiled.Codegen.program in
  (c, stats, Stats.elapsed full_stats)

let assert_counters ~what (c : Cost.t) (stats : Stats.t) =
  check Alcotest.(list string) (what ^ ": prediction = compute-free simulation") []
    (Driver.cost_disagreements c stats)

let assert_makespan ~what (c : Cost.t) (stats : Stats.t) ~full_elapsed =
  let sim = Stats.elapsed stats in
  if c.Cost.exact then
    check Alcotest.bool
      (Fmt.str "%s: exact makespan %.9f = simulated %.9f" what c.Cost.makespan
         sim)
      true
      (Float.abs (c.Cost.makespan -. sim) <= 1e-9 *. Float.max 1.0 sim)
  else
    check Alcotest.bool
      (Fmt.str "%s: approximate makespan %.9f <= compute-free simulated %.9f"
         what c.Cost.makespan sim)
      true
      (c.Cost.makespan <= sim +. 1e-9);
  (* comm-only prediction never exceeds the full-model elapsed time *)
  check Alcotest.bool
    (Fmt.str "%s: makespan %.9f <= full-model elapsed %.9f" what
       c.Cost.makespan full_elapsed)
    true
    (c.Cost.makespan <= full_elapsed +. 1e-9)

let test_examples () =
  List.iter
    (fun file ->
      let path = Filename.concat examples_dir file in
      let cp = Driver.check_source ~file (read_file path) in
      List.iter
        (fun (sname, strategy) ->
          List.iter
            (fun nprocs ->
              let what = Fmt.str "%s [%s P=%d]" file sname nprocs in
              let c, stats, full_elapsed = face_off ~nprocs ~strategy cp in
              check Alcotest.bool (what ^ ": prediction is exact") true
                c.Cost.exact;
              assert_counters ~what c stats;
              assert_makespan ~what c stats ~full_elapsed)
            [ 4; 64 ])
        strategies)
    good_examples

(* A branch on an integer power above 2^53: the verifier's walk must
   compute 3**35 exactly, as the simulator does, to take the branch
   that broadcasts a(8). *)
let pk_source =
  {|program pk
  real a(8)
  integer i, k
  distribute a(block)
  k = 3**35
  do i = 1, 8
    a(i) = float(i)
  enddo
  if (k .eq. 50031545098999707) then
    a(1) = a(8)
  endif
  print *, a(1)
end
|}

let test_power_branch () =
  let cp = Driver.check_source ~file:"pk.fd" pk_source in
  let what = "pk [interproc P=4]" in
  let c, stats, full_elapsed = face_off ~nprocs:4 ~strategy:Options.Interproc cp in
  check Alcotest.bool (what ^ ": prediction is exact") true c.Cost.exact;
  assert_counters ~what c stats;
  assert_makespan ~what c stats ~full_elapsed

(* A REAL stored into an INTEGER scalar: the walk must convert 2.5 to
   2, as the simulator's store does, to take the branch that moves
   a(8). *)
let mix_source =
  {|program mix
  real a(16)
  integer i, k
  distribute a(block)
  do i = 1, 16
    a(i) = float(i)
  enddo
  k = 2.5
  if (k .eq. 2) then
    a(1) = a(8)
  endif
  print *, a(1)
end
|}

let test_store_conversion () =
  let cp = Driver.check_source ~file:"mix.fd" mix_source in
  List.iter
    (fun nprocs ->
      let what = Fmt.str "mix [interproc P=%d]" nprocs in
      let c, stats, full_elapsed = face_off ~nprocs ~strategy:Options.Interproc cp in
      check Alcotest.bool (what ^ ": prediction is exact") true c.Cost.exact;
      assert_counters ~what c stats;
      assert_makespan ~what c stats ~full_elapsed)
    [ 1; 3; 4; 16 ]

(* The per-processor piecewise forms must agree with the simulator's
   per-processor view: summing the pieces reproduces the totals, and
   evaluating them at each pid is nonnegative. *)
let ipieces_at (ps : Cost.ipiece list) p =
  List.fold_left
    (fun acc (c : Cost.ipiece) ->
      if p >= c.ip_lo && p <= c.ip_hi then acc + (c.ip_a * p) + c.ip_b else acc)
    0 ps

let fpieces_at (ps : Cost.fpiece list) p =
  List.fold_left
    (fun acc (c : Cost.fpiece) ->
      if p >= c.fp_lo && p <= c.fp_hi then acc +. (c.fp_a *. float_of_int p) +. c.fp_b
      else acc)
    0.0 ps

let test_per_proc_pieces () =
  List.iter
    (fun file ->
      let path = Filename.concat examples_dir file in
      let cp = Driver.check_source ~file (read_file path) in
      List.iter
        (fun nprocs ->
          let what = Fmt.str "%s [P=%d]" file nprocs in
          let c, _, _ = face_off ~nprocs ~strategy:Options.Interproc cp in
          let sum_msgs =
            List.fold_left (fun a p -> a + Cost.isum_piece p) 0
              c.Cost.per_proc_messages
          in
          let sum_bytes =
            List.fold_left (fun a p -> a + Cost.isum_piece p) 0
              c.Cost.per_proc_bytes
          in
          check Alcotest.int (what ^ ": pieces sum to total messages")
            c.Cost.messages sum_msgs;
          check Alcotest.int (what ^ ": pieces sum to total bytes")
            c.Cost.message_bytes sum_bytes;
          let eval_sum =
            List.init nprocs (ipieces_at c.Cost.per_proc_messages)
            |> List.fold_left ( + ) 0
          in
          check Alcotest.int (what ^ ": pointwise evaluation sums to total")
            c.Cost.messages eval_sum;
          List.iter
            (fun p ->
              check Alcotest.bool (what ^ ": nonnegative per-proc values")
                true
                (ipieces_at c.Cost.per_proc_messages p >= 0
                && ipieces_at c.Cost.per_proc_bytes p >= 0
                && fpieces_at c.Cost.wait_seconds p
                   +. fpieces_at c.Cost.coll_seconds p >= -1e-12))
            (List.init nprocs Fun.id))
        [ 4; 64 ])
    [ "jacobi1d.fd"; "jacobi2d.fd"; "dgefa.fd"; "adi_static.fd" ]

(* Runtime resolution sends one element at a time from jacobi2d's
   column exchange; the analyzer must prove it and warn, while the
   vectorized interproc compilation must stay silent. *)
let test_unvectorized_warning () =
  let path = Filename.concat examples_dir "jacobi2d.fd" in
  let cp = Driver.check_source ~file:"jacobi2d.fd" (read_file path) in
  let has_warning strategy =
    let c, _, _ = face_off ~nprocs:4 ~strategy cp in
    List.exists
      (fun f ->
        f.Finding.severity = Finding.Warning
        && f.Finding.kind = "unvectorized-comm")
      c.Cost.findings
  in
  check Alcotest.bool "runtime strategy: per-element sends flagged" true
    (has_warning Options.Runtime_resolution);
  check Alcotest.bool "interproc strategy: vectorized, no warning" false
    (has_warning Options.Interproc)

(* dgefa's pivot-guard IF is data-dependent: without the sequential
   branch profile the analysis must degrade gracefully to an
   approximate result with Info findings, not wrong exact numbers. *)
let test_profile_degradation () =
  let path = Filename.concat examples_dir "dgefa.fd" in
  let cp = Driver.check_source ~file:"dgefa.fd" (read_file path) in
  let opts = { Options.default with nprocs = 4 } in
  let compiled = Driver.compile ~opts cp in
  let config = Driver.machine_config opts in
  let c = Cost.analyze ~config compiled.Codegen.program in
  check Alcotest.bool "no profile: not exact" false c.Cost.exact;
  check Alcotest.bool "no profile: assumptions recorded" true
    (c.Cost.assumptions <> []);
  check Alcotest.bool "no profile: Info finding per assumption" true
    (List.exists
       (fun f ->
         f.Finding.severity = Finding.Info
         && f.Finding.kind = "cost-assumption")
       c.Cost.findings);
  (* with the profile the same program is exact *)
  let profile = Cost.profile_of_seq cp in
  let c2 = Cost.analyze ~profile ~config compiled.Codegen.program in
  check Alcotest.bool "with profile: exact" true c2.Cost.exact

(* The branch profile is on demand: as [Driver.cost] builds it, the
   sequential run happens only for a program whose walk meets an IF it
   cannot resolve statically — dgefa's pivot test, under every
   strategy; the stencils and figures never run it. *)
let test_profile_on_demand () =
  List.iter
    (fun (file, runs) ->
      let cp = Driver.check_source ~file (read_file (Filename.concat examples_dir file)) in
      List.iter
        (fun (sname, strategy) ->
          let opts = { Options.default with strategy; nprocs = 8 } in
          let compiled = Driver.compile ~opts cp in
          let profile = Cost.profile_of_seq cp in
          let c =
            Cost.analyze ~profile ~config:(Driver.machine_config opts) compiled.Codegen.program
          in
          check Alcotest.bool (Fmt.str "%s %s: sequential run" file sname) runs
            (Cost.profile_ran profile);
          check Alcotest.bool (Fmt.str "%s %s: profile used" file sname) true
            c.Cost.profile_used)
        strategies)
    [ ("fig1.fd", false); ("fig4.fd", false); ("jacobi2d.fd", false);
      ("redblack.fd", false); ("dgefa.fd", true) ]

(* Running the profile on demand changes no answer: the result equals
   the one with the profile run before the analysis. *)
let test_profile_forced_same () =
  List.iter
    (fun file ->
      let cp = Driver.check_source ~file (read_file (Filename.concat examples_dir file)) in
      List.iter
        (fun (sname, strategy) ->
          List.iter
            (fun nprocs ->
              let opts = { Options.default with strategy; nprocs } in
              let prog = (Driver.compile ~opts cp).Codegen.program in
              let config = Driver.machine_config opts in
              let json profile =
                Fd_support.Json.to_string (Cost.to_json (Cost.analyze ~profile ~config prog))
              in
              let forced = Cost.profile_of_seq cp in
              Cost.force_profile forced;
              check Alcotest.string (Fmt.str "%s %s P=%d" file sname nprocs) (json forced)
                (json (Cost.profile_of_seq cp)))
            [ 3; 8; 64 ])
        strategies)
    good_examples

(* Gen sweep: the contract holds on random programs, not just the
   committed corpus.  Cases come from the fuzzer's generator — 1-D and
   2-D programs, most of them mutated, each under its own strategy —
   at P cycling through {3, 5, 8, 16}.  Every case that compiles and
   simulates within the fuzz budget faces the analyzer: the counters
   must match whenever no region was excluded, and the makespan
   whenever the prediction is exact.  An inexact prediction must come
   from an excluded region. *)
let test_gen_property () =
  let budget = Fd_fuzz.Harness.default_case_budget in
  for seed = 1 to 1000 do
    let src, strategy = Fd_fuzz.Harness.gen_case seed in
    let nprocs = [| 3; 5; 8; 16 |].(seed mod 4) in
    let opts = { Options.default with strategy; nprocs } in
    let simulate config prog =
      match Scheduler.run_partial ~budget config prog with
      | { Scheduler.p_exhausted = None; p_stats; _ } -> Some p_stats
      | _ -> None
      | exception (Scheduler.Sim_error _ | Fd_support.Diag.Compile_error _) -> None
    in
    match
      let cp = Driver.check_source src in
      (cp, Driver.compile ~opts cp)
    with
    | exception (Fd_support.Diag.Compile_error _ | Fd_support.Diag.Compile_errors _) -> ()
    | cp, compiled -> (
      let prog = compiled.Codegen.program in
      let config = Driver.machine_config opts in
      let zcfg = { config with Config.flop = 0.0; mem_op = 0.0 } in
      match simulate zcfg prog with
      | None -> ()
      | Some stats ->
        let c = Cost.analyze ~profile:(Cost.profile_of_seq cp) ~config:zcfg prog in
        let what = Fmt.str "gen seed %d [P=%d]:\n%s" seed nprocs src in
        if c.Cost.regions_excluded = 0 then assert_counters ~what c stats;
        check Alcotest.bool (what ^ ": inexact only with an excluded region") true
          (c.Cost.exact || c.Cost.regions_excluded > 0);
        if c.Cost.exact then
          Option.iter
            (fun full -> assert_makespan ~what c stats ~full_elapsed:(Stats.elapsed full))
            (simulate config prog))
  done

(* The replay is flat in P: every per-processor series has as many
   pieces at P = 65,536 as at P = 4,096 (a moving remap adds one piece
   per run of equal cost, not one per pid). *)
let test_pieces_flat_in_p () =
  let lengths file nprocs =
    let cp = Driver.check_source ~file (read_file (Filename.concat examples_dir file)) in
    let opts = { Options.default with strategy = Options.Immediate; nprocs } in
    let c =
      Cost.analyze ~profile:(Cost.profile_of_seq cp) ~config:(Driver.machine_config opts)
        (Driver.compile ~opts cp).Codegen.program
    in
    [ List.length c.Cost.per_proc_messages; List.length c.Cost.per_proc_bytes;
      List.length c.Cost.send_seconds; List.length c.Cost.wait_seconds;
      List.length c.Cost.coll_seconds ]
  in
  List.iter
    (fun file ->
      check Alcotest.(list int)
        (file ^ " immediate: pieces per series at P=4096 and P=65536")
        (lengths file 4096) (lengths file 65536))
    [ "fig15.fd"; "adi_dynamic.fd"; "jacobi1d.fd" ]

(* A cloned program keeps its source locations: every located site,
   critical-path step and finding of fig4 names the file, and the send
   sits at the loop its communication was placed before, the caller's
   [do i] under delayed instantiation and f1's [do k] under immediate
   instantiation (as in the uncloned source). *)
let test_cloned_locations () =
  let file = Filename.concat examples_dir "fig4.fd" in
  let cp = Driver.check_source ~file (read_file file) in
  List.iter
    (fun (strategy, send_line) ->
      let what = Options.strategy_name strategy in
      let compiled = Driver.compile ~opts:{ Options.default with strategy; nprocs = 4 } cp in
      check Alcotest.int (what ^ ": one clone") 1
        compiled.Codegen.clone_result.Cloning.clones_made;
      let vr, _ = Driver.check cp compiled in
      let c = Driver.cost cp compiled in
      List.iter
        (fun (l : Fd_support.Loc.t) ->
          if l <> Fd_support.Loc.none then
            check Alcotest.string (what ^ ": location names the file") file l.Fd_support.Loc.file)
        (List.map (fun (f : Finding.t) -> f.Finding.loc) (vr.Verify.findings @ c.Cost.findings)
        @ List.map (fun s -> s.Cost.site_loc) c.Cost.sites
        @ List.map (fun s -> s.Cost.st_loc) c.Cost.critical_path);
      match List.filter (fun s -> s.Cost.site_what = "send") c.Cost.sites with
      | [ s ] -> check Alcotest.int (what ^ ": send line") send_line s.Cost.site_loc.Fd_support.Loc.line
      | sites -> Alcotest.failf "%s: %d send sites" what (List.length sites))
    [ (Options.Interproc, 20); (Options.Immediate, 33) ]

let suite =
  [
    Alcotest.test_case "examples x strategies x P: counters and makespan"
      `Slow test_examples;
    Alcotest.test_case "per-processor piecewise forms" `Slow
      test_per_proc_pieces;
    Alcotest.test_case "a branch on 3**35: counters and makespan" `Quick
      test_power_branch;
    Alcotest.test_case "an INTEGER store converts a REAL" `Quick test_store_conversion;
    Alcotest.test_case "unvectorized-send warning" `Quick
      test_unvectorized_warning;
    Alcotest.test_case "profile-free degradation" `Quick
      test_profile_degradation;
    Alcotest.test_case "profile runs on demand" `Quick test_profile_on_demand;
    Alcotest.test_case "on-demand profile = forced profile" `Slow
      test_profile_forced_same;
    Alcotest.test_case "gen sweep: random programs" `Slow test_gen_property;
    Alcotest.test_case "cloned program keeps source locations" `Quick
      test_cloned_locations;
    Alcotest.test_case "per-processor pieces flat in P" `Slow
      test_pieces_flat_in_p;
  ]
