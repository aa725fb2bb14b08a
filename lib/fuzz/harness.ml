(* The differential fuzzing harness: generate (possibly mutated, often
   ill-formed) programs, push each through the full pipeline under a
   per-case resource budget, and classify the outcome.

   The invariant under test is *totality with honest answers*:
   - no case may escape as an uncaught exception (Internal_error and
     any residual raise are failures);
   - a rejected program must carry a located diagnostic when the
     frontend rejected it;
   - an accepted program must either verify against the sequential
     reference, or fail simulation only when its sequential run faults
     too or the static verifier flags it (soundness of `fdc check` vs.
     the simulator).

   Failing cases are shrunk line-by-line while the same failure kind
   reproduces, and each failure prints its case seed for `--repro`. *)

open Fd_support
open Fd_core
open Fd_machine

type failure_kind =
  | Crash of string  (* Internal_error or a residual uncaught exception *)
  | Unsound of string  (* simulation failed, static check saw nothing *)
  | Mismatch  (* accepted, ran, differs from the sequential reference *)
  | Unlocated_reject  (* frontend rejection without a source location *)

type verdict =
  | Accepted  (* compiled and verified (or stopped on budget, partial) *)
  | Rejected  (* located diagnostics, a backend fail-fast error, or a sequential fault *)
  | Failed of failure_kind

let kind_name = function
  | Crash _ -> "crash"
  | Unsound _ -> "unsound"
  | Mismatch -> "mismatch"
  | Unlocated_reject -> "unlocated-reject"

let kind_detail = function
  | Crash m | Unsound m -> m
  | Mismatch -> "parallel result differs from the sequential reference"
  | Unlocated_reject -> "rejected without a source location"

let same_kind a b =
  match (a, b) with
  | Crash _, Crash _ | Unsound _, Unsound _ | Mismatch, Mismatch
  | Unlocated_reject, Unlocated_reject -> true
  | _ -> false

(* Every case runs under this budget unless the caller overrides it: a
   mutant that livelocks the simulator degrades to a partial result
   instead of hanging the campaign. *)
let default_case_budget =
  Budget.make ~steps:500_000 ~events:200_000 ~wall:2.0 ()

let strategies =
  [| Options.Interproc; Options.Immediate; Options.Runtime_resolution |]

(* Does the static verifier flag anything (Error, or an Info coverage
   note) that makes a dynamic failure unsurprising? *)
let statically_flagged ~opts cp =
  let vr, _ = Driver.check cp (Driver.compile ~opts cp) in
  List.exists
    (fun (f : Fd_verify.Finding.t) ->
      match f.Fd_verify.Finding.severity with
      | Fd_verify.Finding.Error | Fd_verify.Finding.Info -> true
      | Fd_verify.Finding.Warning -> false)
    vr.Fd_verify.Verify.findings

let run_case ?(budget = default_case_budget) ~nprocs ~strategy src : verdict =
  let opts = { Options.default with Options.nprocs; strategy } in
  match Driver.check_source ~file:"<fuzz>" src with
  | exception Diag.Compile_errors ds ->
    if List.exists (fun (d : Diag.t) -> d.Diag.loc <> Loc.none) ds then Rejected
    else Failed Unlocated_reject
  | exception Diag.Compile_error d ->
    if d.Diag.loc <> Loc.none then Rejected else Failed Unlocated_reject
  | exception Diag.Internal_error d -> Failed (Crash (Diag.to_string d))
  | exception exn -> Failed (Crash (Printexc.to_string exn))
  | cp -> (
    match Driver.run ~opts ~budget cp with
    | r -> if Driver.verified r then Accepted else Failed Mismatch
    | exception Diag.Compile_error _ ->
      (* backend fail-fast (recursion, forbidden aliasing, ...): a
         clean rejection, located or not *)
      Rejected
    | exception Diag.Compile_errors _ -> Rejected
    | exception Diag.Internal_error d -> Failed (Crash (Diag.to_string d))
    | exception Storage.Runtime_error _ ->
      (* the simulation ran and the sequential reference faulted *)
      Rejected
    | exception Scheduler.Sim_error e -> (
      let msg = Scheduler.error_to_string e in
      match Seq_interp.run cp with
      | exception Storage.Runtime_error _ -> Rejected  (* the program faults sequentially too *)
      | _ | (exception _) -> (
        match statically_flagged ~opts cp with
        | true -> Rejected  (* the static check predicted dynamic trouble *)
        | false -> Failed (Unsound msg)
        | exception _ -> Failed (Crash ("static check crashed after: " ^ msg))))
    | exception exn -> Failed (Crash (Printexc.to_string exn)))

(* --- case generation ---------------------------------------------------- *)

(* Everything about a case derives from its seed alone, so a printed
   seed replays byte-identically via [--repro]. *)
let case_rng case_seed = Random.State.make [| case_seed; 0x9e3779b9 |]

let gen_case case_seed : string * Options.strategy =
  let st = case_rng case_seed in
  let base =
    if Random.State.int st 4 = 0 then Fd_workloads.Gen.random_source2d st
    else Fd_workloads.Gen.random_source st
  in
  let src =
    if Random.State.float st 1.0 < 0.7 then
      Mutate.mutate st ~n:(1 + Random.State.int st 3) base
    else base
  in
  let strategy = strategies.(Random.State.int st (Array.length strategies)) in
  (src, strategy)

(* --- campaign ----------------------------------------------------------- *)

type failure = {
  f_seed : int;
  f_kind : string;
  f_detail : string;
  f_src : string;  (* shrunk reproducer *)
}

type report = {
  iters : int;  (* cases actually executed *)
  accepted : int;
  rejected : int;
  failures : failure list;
  elapsed : float;
  execs_per_sec : float;
}

let exec_case ?budget ~nprocs case_seed =
  let src, strategy = gen_case case_seed in
  (run_case ?budget ~nprocs ~strategy src, src, strategy)

let shrink_failure ?budget ~nprocs ~strategy kind src =
  Shrink.shrink
    ~keep:(fun s ->
      match run_case ?budget ~nprocs ~strategy s with
      | Failed k -> same_kind k kind
      | Accepted | Rejected -> false)
    src

let campaign ?budget ?wall ?(nprocs = 4) ?(log = fun _ -> ()) ~iters ~seed () :
    report =
  let t0 = Unix.gettimeofday () in
  let deadline = Option.map (fun w -> t0 +. w) wall in
  let accepted = ref 0 and rejected = ref 0 and failures = ref [] in
  let ran = ref 0 in
  let within_wall () =
    match deadline with Some d -> Unix.gettimeofday () < d | None -> true
  in
  let i = ref 0 in
  while !i < iters && within_wall () do
    let case_seed = seed + !i in
    (match exec_case ?budget ~nprocs case_seed with
    | Accepted, _, _ -> incr accepted
    | Rejected, _, _ -> incr rejected
    | Failed kind, src, strategy ->
      log
        (Fmt.str "seed %d: %s (%s); shrinking..." case_seed (kind_name kind)
           (kind_detail kind));
      let shrunk = shrink_failure ?budget ~nprocs ~strategy kind src in
      failures :=
        { f_seed = case_seed; f_kind = kind_name kind;
          f_detail = kind_detail kind; f_src = shrunk }
        :: !failures);
    incr ran;
    if !ran mod 100 = 0 then
      log
        (Fmt.str "%d/%d cases, %d accepted, %d rejected, %d failures" !ran
           iters !accepted !rejected
           (List.length !failures));
    incr i
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  { iters = !ran;
    accepted = !accepted;
    rejected = !rejected;
    failures = List.rev !failures;
    elapsed;
    execs_per_sec = (if elapsed > 0.0 then float_of_int !ran /. elapsed else 0.0) }

(* Replay one case by seed: the verbose single-case path behind
   `fdc fuzz --repro`. *)
type repro = {
  r_src : string;
  r_strategy : Options.strategy;
  r_verdict : verdict;
  r_shrunk : string option;  (* present when the case fails *)
}

let repro ?budget ?(nprocs = 4) seed : repro =
  let src, strategy = gen_case seed in
  let verdict = run_case ?budget ~nprocs ~strategy src in
  let shrunk =
    match verdict with
    | Failed kind -> Some (shrink_failure ?budget ~nprocs ~strategy kind src)
    | Accepted | Rejected -> None
  in
  { r_src = src; r_strategy = strategy; r_verdict = verdict; r_shrunk = shrunk }
