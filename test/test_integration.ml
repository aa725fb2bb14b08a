(* End-to-end integration tests: every workload compiles under every
   strategy, simulates deterministically, and produces array contents
   identical to sequential execution.  Also checks the quantitative
   relationships the paper predicts, and a property test over randomized
   stencil programs. *)

open Fd_core
open Fd_machine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let strategies = [ Options.Interproc; Options.Immediate; Options.Runtime_resolution ]

let run ?(nprocs = 4) ?(strategy = Options.Interproc) src =
  Driver.run_source ~opts:{ Options.default with nprocs; strategy } src

let verified_case name src =
  Alcotest.test_case name `Quick (fun () ->
      List.iter
        (fun strategy ->
          let r = run ~strategy src in
          if not (Driver.verified r) then
            Alcotest.failf "%s under %s: %d mismatches" name
              (Options.strategy_name strategy)
              (List.length r.Driver.mismatches))
        strategies)

let workload_cases =
  [
    verified_case "fig1 all strategies" (Fd_workloads.Figures.fig1 ());
    verified_case "fig4 all strategies" (Fd_workloads.Figures.fig4 ());
    verified_case "fig15 all strategies" (Fd_workloads.Figures.fig15 ~n:32 ~t:4 ());
    verified_case "dgefa all strategies" (Fd_workloads.Dgefa.source ~n:12 ());
    verified_case "jacobi1d all strategies" (Fd_workloads.Stencil.jacobi1d ~n:64 ~t:3 ());
    verified_case "jacobi2d all strategies" (Fd_workloads.Stencil.jacobi2d ~n:16 ~t:2 ());
    verified_case "redblack all strategies" (Fd_workloads.Stencil.redblack ~n:64 ~t:3 ());
    verified_case "shifts all strategies"
      (Fd_workloads.Stencil.shifts ~n:64 ~widths:[ 1; 2; 3 ] ());
  ]

(* --- Quantitative relationships the paper predicts ------------------------- *)

let msgs r = r.Driver.stats.Stats.messages
let bcasts r = r.Driver.stats.Stats.bcasts
let elapsed r = Stats.elapsed r.Driver.stats

let q_fig4_vectorization () =
  (* interprocedural: one vectorized message pair per neighbor;
     immediate: one per loop iteration (the 100x of Figures 10 vs 12) *)
  let ip = run ~strategy:Options.Interproc (Fd_workloads.Figures.fig4 ~n:100 ()) in
  let im = run ~strategy:Options.Immediate (Fd_workloads.Figures.fig4 ~n:100 ()) in
  check_int "interproc: 3 vectorized messages" 3 (msgs ip);
  check_int "immediate: 100x messages" 300 (msgs im);
  check "interproc faster" true (elapsed ip < elapsed im)

let q_runtime_res_orders_of_magnitude () =
  let ip = run ~strategy:Options.Interproc (Fd_workloads.Figures.fig1 ~n:400 ()) in
  let rr = run ~strategy:Options.Runtime_resolution (Fd_workloads.Figures.fig1 ~n:400 ()) in
  (* element messages: one per boundary element instead of one vectorized
     message per boundary *)
  check "element messages" true (msgs rr = 5 * msgs ip);
  check "slower" true (elapsed rr > 2.0 *. elapsed ip)

let q_dgefa_ordering () =
  let src = Fd_workloads.Dgefa.source ~n:16 () in
  let ip = run ~strategy:Options.Interproc src in
  let im = run ~strategy:Options.Immediate src in
  let rr = run ~strategy:Options.Runtime_resolution src in
  check "interproc < immediate" true (elapsed ip < elapsed im);
  check "immediate < runtime-res" true (elapsed im < elapsed rr);
  (* interprocedural: ~3 collectives per elimination step *)
  check "O(n) collectives" true (bcasts ip <= 3 * 16 + 2);
  check "immediate has O(n^2/2) extra broadcasts" true (bcasts im > 2 * bcasts ip)

let q_dgefa_matches_native_lu () =
  let n = 16 in
  let r = run (Fd_workloads.Dgefa.source ~n ()) in
  assert (Driver.verified r);
  let reference, _ = Fd_workloads.Dgefa.reference_lu n in
  let a = List.assoc "a" r.Driver.seq.Seq_interp.arrays in
  for i = 1 to n do
    for j = 1 to n do
      let v = Fd_frontend.Value.to_float (Storage.read ~strict:false a [| i; j |]) in
      if Float.abs (v -. reference.(i - 1).(j - 1)) > 1e-9 then
        Alcotest.failf "LU mismatch at (%d,%d): %g vs %g" i j v
          reference.(i - 1).(j - 1)
    done
  done

let q_scaling_procs () =
  (* more processors -> shorter simulated time for a large-enough stencil *)
  let src = Fd_workloads.Stencil.jacobi1d ~n:2048 ~t:4 () in
  let t2 = elapsed (run ~nprocs:2 src) in
  let t8 = elapsed (run ~nprocs:8 src) in
  check "scales with processors" true (t8 < t2)

let q_collectives_ablation () =
  (* disabling broadcast recognition turns each bcast into P-1 messages *)
  let src = Fd_workloads.Dgefa.source ~n:12 () in
  let with_coll = run src in
  let without =
    Driver.run_source
      ~opts:{ Options.default with Options.use_collectives = false }
      src
  in
  check "both verified" true (Driver.verified with_coll && Driver.verified without);
  check "no-collectives sends messages instead" true
    (msgs without > msgs with_coll + bcasts with_coll);
  check "tree broadcasts are faster" true (elapsed with_coll <= elapsed without)

let q_nprocs_sweep () =
  List.iter
    (fun p ->
      let r = run ~nprocs:p (Fd_workloads.Figures.fig1 ~n:96 ()) in
      check (Fmt.str "P=%d verified" p) true (Driver.verified r))
    [ 1; 2; 3; 4; 6; 8 ]

let q_uneven_extent () =
  (* extent not divisible by P exercises ragged blocks *)
  List.iter
    (fun n ->
      let r = run ~nprocs:4 (Fd_workloads.Figures.fig1 ~n ~shift:3 ()) in
      check (Fmt.str "n=%d verified" n) true (Driver.verified r))
    [ 97; 101; 103 ]

let q_negative_shift () =
  let src =
    "program p\n  parameter (n = 64)\n  real x(64)\n  integer i\n  distribute x(block)\n  do i = 1, n\n    x(i) = float(i)\n  enddo\n  call f(x)\n  print *, x(n)\nend\nsubroutine f(x)\n  parameter (n = 64)\n  real x(64)\n  integer i\n  do i = 2, n\n    x(i) = x(i-1) + x(i)\n  enddo\nend\n"
  in
  (* backward shift carries a true dependence: compiler must fall back to
     run-time resolution for that statement and stay correct *)
  let r = run src in
  check "carried-dependence fallback verified" true (Driver.verified r)

(* --- Randomized stencil property test --------------------------------------- *)

let gen_program =
  QCheck2.Gen.(
    let* n = int_range 16 48 in
    let* dist = oneofl [ "block"; "cyclic" ] in
    let* shifts = list_size (int_range 1 4) (int_range 0 3) in
    let* in_subroutine = bool in
    return (n, dist, shifts, in_subroutine))

let build_program (n, dist, shifts, in_subroutine) =
  (* alternating sweeps b <- f(a shifted), then swap roles via copy *)
  let ops =
    List.mapi
      (fun idx c ->
        if in_subroutine then Fmt.str "  call op%d(a, b)\n  call cp(b, a)" idx
        else
          Fmt.str
            "  do i = 1, n - %d\n    b(i) = a(i+%d) + 0.5\n  enddo\n  do i = 1, n\n    a(i) = b(i)\n  enddo"
            c c)
      shifts
  in
  let subs =
    if in_subroutine then
      List.mapi
        (fun idx c ->
          Fmt.str
            "subroutine op%d(a, b)\n  parameter (n = %d)\n  real a(%d), b(%d)\n  integer i\n  do i = 1, n - %d\n    b(i) = a(i+%d) + 0.5\n  enddo\nend\n"
            idx n n n c c)
        shifts
      @ [ Fmt.str
            "subroutine cp(b, a)\n  parameter (n = %d)\n  real a(%d), b(%d)\n  integer i\n  do i = 1, n\n    a(i) = b(i)\n  enddo\nend\n"
            n n n ]
    else []
  in
  Fmt.str
    "program r\n  parameter (n = %d)\n  real a(%d), b(%d)\n  integer i\n  distribute a(%s)\n  distribute b(%s)\n  do i = 1, n\n    a(i) = float(mod(i*7, 11))\n    b(i) = 0.0\n  enddo\n%s\n  print *, a(1)\nend\n%s"
    n n n dist dist
    (String.concat "\n" ops)
    (String.concat "" subs)

let prop_random_stencils =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:25 ~name:"random stencil programs verify under all strategies"
       gen_program
       (fun params ->
         let src = build_program params in
         List.for_all
           (fun strategy ->
             let r = run ~strategy src in
             Driver.verified r)
           strategies))

let suite =
  workload_cases
  @ [
      Alcotest.test_case "fig4 cross-procedure vectorization" `Quick q_fig4_vectorization;
      Alcotest.test_case "runtime resolution cost" `Quick q_runtime_res_orders_of_magnitude;
      Alcotest.test_case "dgefa strategy ordering" `Quick q_dgefa_ordering;
      Alcotest.test_case "dgefa equals native LU" `Quick q_dgefa_matches_native_lu;
      Alcotest.test_case "processor scaling" `Quick q_scaling_procs;
      Alcotest.test_case "collectives ablation" `Quick q_collectives_ablation;
      Alcotest.test_case "nprocs sweep" `Quick q_nprocs_sweep;
      Alcotest.test_case "uneven extents" `Quick q_uneven_extent;
      Alcotest.test_case "carried dependence fallback" `Quick q_negative_shift;
      prop_random_stencils;
    ]

(* --- ADI: dynamic remapping vs static distribution --------------------------- *)

let adi_both_verify () =
  let dyn = run (Fd_workloads.Adi.dynamic ~n:16 ~t:2 ()) in
  let sta = run (Fd_workloads.Adi.static_ ~n:16 ~t:2 ()) in
  check "dynamic verified" true (Driver.verified dyn);
  check "static verified" true (Driver.verified sta);
  (* the two variants compute the same answer *)
  check "same output" true
    (Stats.outputs dyn.Driver.stats = Stats.outputs sta.Driver.stats);
  (* dynamic uses remaps and no messages; static uses element messages *)
  check "dynamic has remaps" true (dyn.Driver.stats.Stats.remaps > 0);
  check_int "dynamic needs no messages" 0 (msgs dyn);
  check "static pays element messages" true (msgs sta > 0)

let suite =
  suite
  @ [ Alcotest.test_case "adi dynamic vs static" `Quick adi_both_verify ]

(* --- Seeded fuzzing over the Gen workload generator --------------------------- *)

let fuzz_gen () =
  let st = Random.State.make [| 0x5eed |] in
  for _case = 1 to 40 do
    let src = Fd_workloads.Gen.random_source st in
    List.iter
      (fun strategy ->
        match run ~strategy src with
        | r ->
          if not (Driver.verified r) then
            Alcotest.failf "fuzz mismatch under %s for:\n%s"
              (Options.strategy_name strategy) src
        | exception e ->
          Alcotest.failf "fuzz exception (%s) under %s for:\n%s"
            (Printexc.to_string e)
            (Options.strategy_name strategy) src)
      strategies
  done

let fuzz_nprocs () =
  let st = Random.State.make [| 0xfeed |] in
  for _case = 1 to 10 do
    let src = Fd_workloads.Gen.random_source st in
    List.iter
      (fun p ->
        let r = run ~nprocs:p src in
        if not (Driver.verified r) then
          Alcotest.failf "fuzz mismatch at P=%d for:\n%s" p src)
      [ 1; 2; 3; 5; 8 ]
  done

let suite =
  suite
  @ [
      Alcotest.test_case "fuzz: generated programs x strategies" `Slow fuzz_gen;
      Alcotest.test_case "fuzz: generated programs x nprocs" `Slow fuzz_nprocs;
    ]

(* --- Block-cyclic distribution end to end ------------------------------------- *)

let block_cyclic_e2e () =
  let src =
    "program p\n  parameter (n = 24)\n  real x(24)\n  integer i\n  distribute x(block_cyclic(3))\n  do i = 1, n\n    x(i) = float(i)\n  enddo\n  call f(x)\n  print *, x(1)\nend\nsubroutine f(x)\n  parameter (n = 24)\n  real x(24)\n  integer i\n  do i = 1, n - 3\n    x(i) = x(i+3) + 1.0\n  enddo\nend\n"
  in
  List.iter
    (fun strategy ->
      let r = run ~strategy src in
      check (Fmt.str "block_cyclic %s" (Options.strategy_name strategy)) true
        (Driver.verified r))
    strategies

(* --- Golden SPMD output for the paper's Figure 1/2 ----------------------------- *)

let golden_fig1 () =
  let compiled =
    Driver.compile_source
      ~opts:{ Options.default with Options.nprocs = 4 }
      (Fd_workloads.Figures.fig1 ~n:100 ~shift:5 ())
  in
  let text = Fmt.str "%a" Node.pp_program compiled.Codegen.program in
  let expects =
    [ (* reduced loop bounds with the boundary clip (paper's ub$1) *)
      "do i = 25 * my$p + 1, min(25 * my$p + 25, 95)";
      (* vectorized guarded boundary exchange, hoisted into the caller *)
      "send x(25 * my$p + 1:25 * my$p + 5) to my$p - 1";
      "if (my$p >= 1) then";
      "recv from my$p + 1";
      "if (my$p <= 2) then" ]
  in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      if not (contains text needle) then
        Alcotest.failf "generated SPMD lacks %S:\n%s" needle text)
    expects

let suite =
  suite
  @ [
      Alcotest.test_case "block-cyclic end to end" `Quick block_cyclic_e2e;
      Alcotest.test_case "golden fig1 SPMD output" `Quick golden_fig1;
    ]

(* --- Edge cases: tiny extents, big shifts, empty processors ------------------- *)

let edge_cases () =
  let cases =
    [ ("n=3 P=4 (empty procs)", Fd_workloads.Figures.fig1 ~n:3 ~shift:1 ());
      ("n=7 P=4 (ragged)", Fd_workloads.Figures.fig1 ~n:7 ~shift:1 ());
      ("shift > block", Fd_workloads.Figures.fig1 ~n:16 ~shift:5 ());
      ("shift = n-1", Fd_workloads.Figures.fig1 ~n:8 ~shift:7 ());
      ("both shifts",
       "program p\n  parameter (n = 32)\n  real a(32), b(32)\n  integer i\n  distribute a(block)\n  distribute b(block)\n  do i = 1, n\n    a(i) = float(i)\n    b(i) = 0.0\n  enddo\n  call f(a, b)\n  print *, b(16)\nend\nsubroutine f(a, b)\n  parameter (n = 32)\n  real a(32), b(32)\n  integer i\n  do i = 2, n-1\n    b(i) = a(i-1) + a(i+1)\n  enddo\nend\n");
      ("cyclic tiny",
       "program p\n  real x(3)\n  integer i\n  distribute x(cyclic)\n  do i = 1, 3\n    x(i) = float(i)\n  enddo\n  call f(x)\n  print *, x(1)\nend\nsubroutine f(x)\n  real x(3)\n  integer i\n  do i = 1, 3\n    x(i) = x(i) * 2.0\n  enddo\nend\n");
      ("zero-trip partitioned loop",
       "program p\n  parameter (n = 8)\n  real x(8)\n  integer i\n  distribute x(block)\n  do i = 5, 4\n    x(i) = 1.0\n  enddo\n  do i = 1, n\n    x(i) = float(i)\n  enddo\n  print *, x(8)\nend\n") ]
  in
  List.iter
    (fun (name, src) ->
      let r = run src in
      if not (Driver.verified r) then Alcotest.failf "%s failed verification" name)
    cases;
  (* one processor: everything local, zero messages *)
  let r1 = run ~nprocs:1 (Fd_workloads.Dgefa.source ~n:8 ()) in
  check "P=1 verified" true (Driver.verified r1);
  check_int "P=1 sends nothing" 0 (msgs r1)

let suite = suite @ [ Alcotest.test_case "edge cases" `Quick edge_cases ]

let fuzz_gen_2d () =
  let st = Random.State.make [| 0x2d2d |] in
  for _case = 1 to 25 do
    let src = Fd_workloads.Gen.random_source2d st in
    List.iter
      (fun strategy ->
        match run ~strategy src with
        | r ->
          if not (Driver.verified r) then
            Alcotest.failf "2D fuzz mismatch under %s for:\n%s"
              (Options.strategy_name strategy) src
        | exception e ->
          Alcotest.failf "2D fuzz exception (%s) under %s for:\n%s"
            (Printexc.to_string e)
            (Options.strategy_name strategy) src)
      strategies
  done

let suite =
  suite @ [ Alcotest.test_case "fuzz: 2D generated programs" `Slow fuzz_gen_2d ]

(* --- Message aggregation (paper Fig. 11) --------------------------------------- *)

let aggregation_ablation () =
  let src = Fd_workloads.Stencil.multi_array ~n:64 ~t:2 () in
  let with_agg = run src in
  let without =
    Driver.run_source
      ~opts:{ Options.default with Options.aggregate_messages = false }
      src
  in
  check "both verified" true (Driver.verified with_agg && Driver.verified without);
  (* three same-direction transfers merge into one message per pair *)
  check_int "aggregated" 6 (msgs with_agg);
  check_int "unaggregated" 18 (msgs without);
  check_int "same volume" without.Driver.stats.Stats.message_bytes
    with_agg.Driver.stats.Stats.message_bytes;
  check "aggregation is faster" true (elapsed with_agg < elapsed without)

let aggregation_all_strategies () =
  let src = Fd_workloads.Stencil.multi_array ~n:32 ~t:2 () in
  List.iter
    (fun strategy ->
      let r = run ~strategy src in
      check (Options.strategy_name strategy) true (Driver.verified r))
    strategies

let suite =
  suite
  @ [
      Alcotest.test_case "message aggregation ablation" `Quick aggregation_ablation;
      Alcotest.test_case "multi-array workload strategies" `Quick aggregation_all_strategies;
    ]

(* --- Multi-level call chains ----------------------------------------------------- *)

let chain_src = {|
program p
  parameter (n = 64)
  real a(64), b(64)
  integer i, it
  distribute a(block)
  distribute b(block)
  do i = 1, n
    a(i) = float(i)
    b(i) = 0.0
  enddo
  do it = 1, 3
    call g(a, b)
  enddo
  print *, b(1), b(n-1)
end

subroutine g(a, b)
  parameter (n = 64)
  real a(64), b(64)
  integer i
  call op(a, b)
  do i = 1, n
    a(i) = b(i)
  enddo
end

subroutine op(a, b)
  parameter (n = 64)
  real a(64), b(64)
  integer i
  do i = 1, n-2
    b(i) = a(i+2) * 0.5
  enddo
end
|}

let owner_chain_src = {|
program p
  parameter (n = 32)
  real a(32,32)
  integer k, l
  distribute a(:,cyclic)
  do k = 1, n
    do l = 1, n
      a(l,k) = float(mod(l*3+k, 7))
    enddo
  enddo
  do k = 1, n
    call outer(a, k)
  enddo
  print *, a(1,1)
end

subroutine outer(a, k)
  parameter (n = 32)
  real a(32,32)
  integer k, l
  call finder(a, k, l)
  call scaler(a, k, l)
end

subroutine finder(a, k, l)
  parameter (n = 32)
  real a(32,32)
  integer k, l, i
  l = 1
  do i = 2, n
    if (a(i,k) > a(l,k)) then
      l = i
    endif
  enddo
end

subroutine scaler(a, k, l)
  parameter (n = 32)
  real a(32,32)
  integer k, l, i
  do i = 1, n
    a(i,k) = a(i,k) / (a(l,k) + 1.0)
  enddo
end
|}

let chain_two_level () =
  List.iter
    (fun strategy ->
      let r = run ~strategy chain_src in
      check (Options.strategy_name strategy) true (Driver.verified r))
    strategies

let chain_owner_composes () =
  (* the owner(k) constraint composes through three call levels: the
     whole subtree runs on one processor with no communication at all *)
  let r = run owner_chain_src in
  check "verified" true (Driver.verified r);
  check_int "zero messages" 0 (msgs r);
  check_int "only the print broadcast" 1 (bcasts r);
  (* the composed constraint is exported by outer itself *)
  (match (Codegen.export_of r.Driver.compiled.Codegen.state "outer").Exports.ex_constraint with
  | Exports.C_owner { co_array = "a"; co_dim = 1; _ } -> ()
  | _ -> Alcotest.fail "outer should compose the owner constraint");
  List.iter
    (fun strategy ->
      let r = run ~strategy owner_chain_src in
      check (Options.strategy_name strategy) true (Driver.verified r))
    [ Options.Immediate; Options.Runtime_resolution ]

let suite =
  suite
  @ [
      Alcotest.test_case "two-level call chain" `Quick chain_two_level;
      Alcotest.test_case "owner constraint composes through chain" `Quick
        chain_owner_composes;
    ]

(* --- PRINT under an owner constraint ----------------------------------- *)

(* [g] reads one element of a block-distributed array and prints it.  As
   an owner-constrained procedure its call would run on that element's
   owner only, while the PRINT runs on processor 0: nothing would print.
   The same holds one level up, through a wrapper that writes the
   element before calling [g]. *)
let print_in_callee_src =
  "program p\n  real x(8)\n  integer i\n  distribute x(block)\n\
  \  do i = 1, 8\n    x(i) = float(i)\n  enddo\n  call g(x)\nend\n\
   subroutine g(y)\n  real y(8)\n  print *, y(7)\nend\n"

let print_below_wrapper_src =
  "program p\n  real x(8)\n  integer i\n  distribute x(block)\n\
  \  do i = 1, 8\n    x(i) = float(i)\n  enddo\n  call f(x)\nend\n\
   subroutine f(y)\n  real y(8)\n  y(7) = 70.0\n  call g(y)\nend\n\
   subroutine g(z)\n  real z(8)\n  print *, z(7)\nend\n"

let prints_survive_owner_constraints () =
  List.iter
    (fun (name, src, expected) ->
      List.iter
        (fun strategy ->
          List.iter
            (fun nprocs ->
              let r = run ~nprocs ~strategy src in
              let where =
                Fmt.str "%s under %s at P=%d" name (Options.strategy_name strategy) nprocs
              in
              Alcotest.(check (list string)) where [ expected ] (Stats.outputs r.Driver.stats);
              check where true (Driver.verified r))
            [ 2; 4; 7 ])
        strategies)
    [ ("print in callee", print_in_callee_src, "7");
      ("print below a wrapper", print_below_wrapper_src, "70") ]

(* A CALL whose actual reads distributed elements: every processor
   makes the call, so each element must reach every processor first. *)
let call_actual_src =
  "program p\n  real a(8)\n  integer i\n  distribute a(block)\n\
  \  do i = 1, 8\n    a(i) = float(i)\n  enddo\n  call show(a(5) + a(2))\nend\n\
   subroutine show(v)\n  real v\n  print *, v\nend\n"

let call_actuals_reach_every_processor () =
  List.iter
    (fun strategy ->
      let r = run ~strategy call_actual_src in
      let name = Options.strategy_name strategy in
      Alcotest.(check (list string)) name [ "7" ] (Stats.outputs r.Driver.stats);
      check name true (Driver.verified r))
    strategies

let suite =
  suite
  @ [
      Alcotest.test_case "PRINT survives owner constraints" `Quick
        prints_survive_owner_constraints;
      Alcotest.test_case "CALL actuals reach every processor" `Quick
        call_actuals_reach_every_processor;
    ]

(* --- Message placement: one dependence-driven rule ------------------------ *)

(* A read of an element the same body wrote first: the broadcast may
   not leave the body for the caller. *)
let read_after_callee_write_src =
  "program p\n  real a(16)\n  integer i\n  distribute a(block)\n\
  \  do i = 1, 16\n    a(i) = float(i)\n  enddo\n  call g(a)\nend\n\
   subroutine g(a)\n  real a(16)\n  a(13) = 99.0\n  print *, a(13)\nend\n"

(* A shift read after a call that writes the element it reads: the
   shift may not leave the loop. *)
let shift_after_call_write_src =
  "program p\n  real a(16), b(16)\n  integer i\n  distribute a(block)\n\
  \  distribute b(block)\n  do i = 1, 16\n    a(i) = float(i)\n    b(i) = 0.0\n  enddo\n\
  \  do i = 2, 16\n    call setc(a, i)\n    b(i) = a(i-1)\n  enddo\n  print *, b(5), b(16)\nend\n\
   subroutine setc(a, k)\n  real a(16)\n  integer k\n  a(k) = a(k) * 10.0\nend\n"

(* A dependence of distance 12 in a loop of step 2 is 6 iterations,
   not 12: it is carried. *)
let strided_dependence_src =
  "program p\n  real a(32)\n  integer i\n  distribute a(block)\n\
  \  do i = 1, 32\n    a(i) = float(i)\n  enddo\n\
  \  do i = 13, 31, 2\n    a(i) = a(i-12) + 100.0\n  enddo\n  print *, a(25), a(31)\nend\n"

(* An owner-constrained body runs on one owner: its broadcast of
   another owner's a(j) leaves the loop that writes a(k), or the other
   processors never join it. *)
let owner_body_broadcast_src =
  "program p\n  real a(16)\n  integer i\n  distribute a(block)\n\
  \  do i = 1, 16\n    a(i) = float(i)\n  enddo\n  call f(a, 3, 12)\n  print *, a(3), a(12)\nend\n\
   subroutine f(a, k, j)\n  real a(16)\n  integer k, j, i\n\
  \  do i = 1, 4\n    a(k) = a(k) + a(j)\n  enddo\nend\n"

(* Programs that read distributed elements, by PRINT or assignment,
   inside loops that write those elements directly, through a call, or
   through a call that remaps the array, beside a scalar the loop
   assigns.  Every placement and partition must agree with the
   sequential run under every strategy. *)
let placement_case st =
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let n = 16 in
  let dist = pick [ "block"; "cyclic" ] in
  let sub () = pick [ "i"; "i - 1"; "i + 1"; string_of_int (1 + Random.State.int st n) ] in
  let writer =
    match Random.State.int st 4 with
    | 0 -> let w = sub () in Fmt.str "a(%s) = a(%s) + 1.0" w w
    | 1 -> Fmt.str "call setc(a, %s)" (sub ())
    | 2 -> Fmt.str "call rphase(a, %s)" (sub ())
    | _ -> Fmt.str "call rmark(a, %s)" (sub ())
  in
  let reader =
    match Random.State.int st 4 with
    | 0 -> Fmt.str "print *, a(%s)" (sub ())
    | 1 -> Fmt.str "b(i) = a(%s)" (sub ())
    | 2 -> Fmt.str "b(i) = a(%s) + a(%s)" (sub ()) (sub ())
    | _ -> Fmt.str "call show(a, %s)" (sub ())
  in
  let body = if Random.State.bool st then [ writer; reader ] else [ reader; writer ] in
  (* none, a private temporary, a carried value, a value printed after
     the loop, a reduction, or a scalar formal a callee assigns *)
  let scalar, after =
    match Random.State.int st 6 with
    | 0 -> ([], "")
    | 1 -> ([ Fmt.str "x = a(%s) * 2.0" (sub ()); "b(i) = x + 1.0" ], "")
    | 2 -> ([ "x = x + 1.0"; "b(i) = b(i) + x" ], "")
    | 3 -> ([ Fmt.str "x = a(%s)" (sub ()) ], "  print *, x\n")
    | 4 -> ([ Fmt.str "x = x + a(%s)" (sub ()) ], "  print *, x\n")
    | _ -> ([ Fmt.str "call sets(x, a, %s)" (sub ()) ], "  print *, x\n")
  in
  let body =
    let at = Random.State.int st 3 in
    List.filteri (fun j _ -> j < at) body @ scalar @ List.filteri (fun j _ -> j >= at) body
  in
  let loop =
    Fmt.str "  do i = %d, %d\n%s  enddo\n" (2 + Random.State.int st 3) (n - 1 - Random.State.int st 3)
      (String.concat "" (List.map (Fmt.str "    %s\n") body))
  in
  let loop = if Random.State.bool st then Fmt.str "  do t = 1, 2\n%s  enddo\n" loop else loop in
  let redistribute = Fmt.str "  distribute a(%s)\n" (if dist = "block" then "cyclic" else "block") in
  let callee (name, formals, code) =
    if List.exists (fun l -> String.starts_with ~prefix:("call " ^ name) l) body then
      Fmt.str "subroutine %s(%s)\n  real a(%d)\n  integer k\n%send\n" name formals n code
    else ""
  in
  Fmt.str
    "program p\n  real a(%d), b(%d), x\n  integer i, t\n  distribute a(%s)\n\
    \  distribute b(%s)\n  do i = 1, %d\n    a(i) = float(i)\n    b(i) = 0.0\n\
    \  enddo\n  x = 0.0\n%s%s  print *, a(1), a(%d), b(2), b(%d)\nend\n%s"
    n n dist dist n loop after n (n - 1)
    (String.concat ""
       (List.map callee
          [ ("setc", "a, k", "  a(k) = a(k) * 2.0 + 1.0\n");
            ("rphase", "a, k", redistribute ^ "  a(k) = a(k) + 3.0\n");
            ("rmark", "a, k", redistribute);  (* remaps, and writes nothing *)
            ("show", "a, k", "  print *, a(k)\n");
            ("sets", "v, a, k", "  real v\n  v = a(k) * 0.5\n") ]))

(* [src] agrees with the sequential run under every strategy at each P
   of [procs]; a failure names [what]. *)
let check_everywhere ?(procs = [ 3; 4; 7 ]) what src =
  List.iter
    (fun strategy ->
      List.iter
        (fun nprocs ->
          let fail why =
            Alcotest.failf "%s under %s at P=%d: %s\n%s" what (Options.strategy_name strategy)
              nprocs why src
          in
          match run ~nprocs ~strategy src with
          | r -> if not (Driver.verified r) then fail "differs from the sequential run"
          | exception Fd_machine.Scheduler.Sim_error e -> fail (Fd_machine.Scheduler.error_to_string e))
        procs)
    strategies

let placement_property () =
  let st = Random.State.make [| 0x91ace |] in
  for case = 1 to 300 do
    check_everywhere (Fmt.str "case %d" case) (placement_case st)
  done

let suite =
  suite
  @ [
      verified_case "read after a callee's own write" read_after_callee_write_src;
      verified_case "shift after a call that writes it" shift_after_call_write_src;
      verified_case "dependence in a strided loop" strided_dependence_src;
      verified_case "broadcast out of an owner-guarded body" owner_body_broadcast_src;
      Alcotest.test_case "placement: reads past writes, calls, remaps" `Quick
        placement_property;
    ]

(* --- One partition rule: effects and scalars ------------------------------ *)

(* A callee that remaps runs on every processor: neither an owner guard
   nor a partitioned loop may skip its remap. *)
let remapping_callee_src =
  "program p\n  real a(16)\n  integer i\n  distribute a(block)\n\
  \  do i = 1, 16\n    a(i) = float(i)\n  enddo\n\
  \  do i = 4, 14\n    call rphase(a, i + 1)\n  enddo\n  print *, a(5), a(15)\nend\n\
   subroutine rphase(a, k)\n  real a(16)\n  integer k\n  distribute a(cyclic)\n\
  \  a(k) = a(k) + 3.0\nend\n"

(* The same callee below a wrapper that writes the element after it:
   an owner guard on the wrapper would skip the remap too. *)
let remapping_below_src =
  "program p\n  real a(16)\n  integer i\n  distribute a(block)\n\
  \  do i = 1, 16\n    a(i) = float(i)\n  enddo\n\
  \  do i = 4, 14\n    call w(a, i)\n  enddo\n  print *, a(5), a(14)\nend\n\
   subroutine w(a, k)\n  real a(16)\n  integer k\n  call rphase(a, k)\n  a(k) = a(k) * 2.0\nend\n\
   subroutine rphase(a, k)\n  real a(16)\n  integer k\n  distribute a(cyclic)\n\
  \  a(k) = a(k) + 3.0\nend\n"

(* The same callee as a wrapper's last statement: the restore remap
   after the call is the wrapper's last use of [a], and the caller
   reads [a] in the decomposition it leaves. *)
let remapping_tail_src =
  "program p\n  real a(16)\n  integer i\n  distribute a(block)\n\
  \  do i = 1, 16\n    a(i) = float(i)\n  enddo\n\
  \  do i = 4, 14\n    call w(a, i)\n  enddo\n  print *, a(5), a(14)\nend\n\
   subroutine w(a, k)\n  real a(16)\n  integer k\n  call rphase(a, k)\nend\n\
   subroutine rphase(a, k)\n  real a(16)\n  integer k\n  distribute a(cyclic)\n\
  \  a(k) = a(k) * 2.0 + 3.0\nend\n"

(* A sum carried across the iterations of a loop whose call is
   partitioned by it. *)
let carried_sum_src =
  "program p\n  real a(16), x\n  integer i\n  distribute a(block)\n\
  \  do i = 1, 16\n    a(i) = float(i)\n  enddo\n  x = 0.0\n\
  \  do i = 4, 14\n    x = x + a(i + 1)\n    call setc(a, i)\n  enddo\n  print *, x\nend\n\
   subroutine setc(a, k)\n  real a(16)\n  integer k\n  a(k) = a(k) * 2.0 + 1.0\nend\n"

(* A temporary assigned every iteration but printed after the loop. *)
let live_out_src =
  "program p\n  real a(16), x\n  integer i\n  distribute a(block)\n\
  \  do i = 1, 16\n    a(i) = float(i)\n  enddo\n  x = 0.0\n\
  \  do i = 1, 16\n    x = a(i) * 2.0\n    a(i) = x + 1.0\n  enddo\n  print *, x\nend\n"

(* A scalar read before it is assigned in the body. *)
let carried_scalar_src =
  "program p\n  real a(16), x\n  integer i\n  distribute a(block)\n  x = 1.0\n\
  \  do i = 1, 16\n    a(i) = x\n    x = x + 1.0\n  enddo\n  print *, a(12)\nend\n"

(* The same temporary as a formal: its caller prints it. *)
let live_formal_src =
  "program p\n  real a(16), t\n  integer i\n  distribute a(block)\n\
  \  do i = 1, 16\n    a(i) = float(i)\n  enddo\n  t = 0.0\n  call g(a, t)\n  print *, t\nend\n\
   subroutine g(a, t)\n  real a(16), t\n  integer i\n\
  \  do i = 1, 16\n    t = a(i)\n    a(i) = t + 1.0\n  enddo\nend\n"

(* The same temporary in COMMON. *)
let live_common_src =
  "program p\n  real a(16), s\n  common /c/ s\n  integer i\n  distribute a(block)\n\
  \  do i = 1, 16\n    a(i) = float(i)\n  enddo\n  s = 0.0\n  call g(a)\n  print *, s\nend\n\
   subroutine g(a)\n  real a(16), s\n  common /c/ s\n  integer i\n\
  \  do i = 1, 16\n    s = a(i)\n    a(i) = s + 1.0\n  enddo\nend\n"

(* A scalar a call assigns, printed after the loop. *)
let call_result_src =
  "program p\n  real a(16), x\n  integer i\n  distribute a(block)\n\
  \  do i = 1, 16\n    a(i) = float(i)\n  enddo\n  x = 0.0\n\
  \  do i = 1, 16\n    call getv(a, i, x)\n    a(i) = x + 1.0\n  enddo\n  print *, x\nend\n\
   subroutine getv(a, k, v)\n  real a(16), v\n  integer k\n  v = a(k)\nend\n"

let partition_case name src =
  Alcotest.test_case name `Quick (fun () -> check_everywhere name src)

let suite =
  suite
  @ [
      partition_case "partition: a callee that remaps" remapping_callee_src;
      partition_case "partition: a wrapper around a callee that remaps" remapping_below_src;
      partition_case "remap: a wrapper ending in a callee that remaps" remapping_tail_src;
      partition_case "partition: a sum beside a partitioned call" carried_sum_src;
      partition_case "partition: a scalar live after the loop" live_out_src;
      partition_case "partition: a scalar carried across iterations" carried_scalar_src;
      partition_case "partition: a scalar formal live at exit" live_formal_src;
      partition_case "partition: a COMMON scalar live at exit" live_common_src;
      partition_case "partition: a call's scalar result live after the loop" call_result_src;
    ]

(* --- A DO index read after its loop ------------------------------------- *)

(* Each index below is read after its loop, except k's, which is
   assigned first: j by a PRINT, m at the top of the next t iteration,
   n by g's caller.  A partitioned loop would leave each processor with
   its own index, so only k's loop may be partitioned. *)
let index_after_loop_src =
  "program p\n  real a(16), b(16)\n  integer i, j, k, m, t\n\
  \  distribute a(block)\n  distribute b(block)\n\
  \  do i = 1, 16\n    a(i) = float(i)\n  enddo\n\
  \  do j = 1, 16\n    b(j) = a(j) * 2.0\n  enddo\n  print *, j, b(j)\n\
  \  do k = 2, 15\n    b(k) = a(k) + 1.0\n  enddo\n  k = 5\n  print *, k, b(k)\n\
  \  m = 0\n  do t = 1, 2\n    a(1) = float(m)\n    do m = 1, 16\n      a(m) = a(m) + 1.0\n\
  \    enddo\n  enddo\n  call g(b, i)\n  print *, i, a(1), b(16)\nend\n\
   subroutine g(b, n)\n  real b(16)\n  integer n\n\
  \  do n = 1, 16\n    b(n) = b(n) * 3.0\n  enddo\nend\n"

let index_after_loop () =
  check_everywhere ~procs:[ 1; 3; 4; 7 ] "a DO index read after its loop" index_after_loop_src;
  let partitioned =
    List.map
      (fun d ->
        ( d.Codegen.d_var,
          Str.string_match (Str.regexp ".*partitioned") (Fmt.str "%a" Codegen.pp_decision d) 0 ))
      (Codegen.decisions (Driver.compile_source index_after_loop_src))
  in
  List.iter
    (fun (var, expected) ->
      check (Fmt.str "do %s partitioned" var) expected (List.assoc var partitioned))
    [ ("j", false); ("k", true); ("m", false); ("n", false) ]

let suite =
  suite
  @ [ Alcotest.test_case "partition: a DO index read after its loop" `Quick index_after_loop ]

(* --- Array kills: only a store that always covers the array kills it ------ *)

(* [a] is remapped to cyclic by [rphase] and back after the call; [next]
   is the first statement to touch [a] after that restore remap.  None
   of these stores every element of [a] on every run, so the restore
   must move the callee's values, not just mark the new layout. *)
let partial_overwrite_src next =
  Fmt.str
    "program k\n  real a(48), b(48)\n  integer j, n\n\
    \  do i = 1, 48\n    a(i) = i\n    b(i) = 2 * i\n  enddo\n  j = 7\n  n = 0\n\
    \  call rphase(a, b)\n%s  print *, a(1), a(2), a(7), a(48), b(1), b(48)\nend\n\
     subroutine rphase(a, b)\n  real a(48), b(48)\n  distribute a(cyclic)\n\
    \  do i = 1, 48\n    a(i) = a(i) + b(i)\n  enddo\nend\n\
     subroutine peek(a, b, i)\n  real a(48), b(48)\n  integer i\n  b(i) = a(48)\nend\n\
     subroutine early(a, b, j)\n  real a(48), b(48)\n  integer j\n  call rphase(a, b)\n\
    \  do i = 1, 48\n    a(i) = 0\n    if (i .ge. j) then\n      return\n    endif\n  enddo\nend\n"
    next

let partial_overwrites =
  [ ("a scalar subscript", "  a(j) = b(j)\n");
    ("a store under an IF", "  if (j .gt. 100) then\n    do i = 1, 48\n      a(i) = 0\n    enddo\n  endif\n");
    ("an IF in the loop", "  do i = 1, 48\n    if (i .gt. 2) then\n      a(i) = 0\n    endif\n  enddo\n");
    ("step 2", "  do i = 1, 48, 2\n    a(i) = 0\n  enddo\n");
    ("a run-time step", "  do i = 1, 48, j\n    a(i) = 0\n  enddo\n");
    ("run-time zero trips", "  do i = 1, n\n    a(i) = 0\n  enddo\n");
    ("zero trips", "  do i = 10, 1\n    a(i) = 0\n  enddo\n");
    ("an inner loop over one element", "  do i = 1, 48, 47\n    do m = i, i\n      a(m) = 0\n    enddo\n  enddo\n");
    ("a call that reads it", "  do i = 1, 48\n    a(i) = 0\n    call peek(a, b, i)\n  enddo\n");
    ("a RETURN in the loop", "  call early(a, b, j)\n") ]

let partial_overwrite_kills () =
  List.iter
    (fun (what, next) ->
      check_everywhere ~procs:[ 1; 3; 4; 7 ] ("array kill past " ^ what) (partial_overwrite_src next))
    partial_overwrites

let suite =
  suite
  @ [ Alcotest.test_case "array kills: partial overwrites keep the callee's values" `Quick
        partial_overwrite_kills ]

(* --- Red-black sweeps: fractional distances are independent ------------- *)

(* A red sweep with step 2 and a black sweep with step [black] (2 or -2),
   over [n] elements of a [dist]-distributed array.  Neither sweep reads
   its own colour, so both loops may be partitioned. *)
let redblack_src ~n ~dist ~black =
  let hi = if (n - 1) mod 2 = 0 then n - 1 else n - 2 in
  let lo, hi = if black > 0 then (2, hi) else (hi, 2) in
  Fmt.str
    "program rb\n  real u(%d)\n  integer i, it\n  distribute u(%s)\n\
    \  do i = 1, %d\n    u(i) = float(mod(i*11, 23))\n  enddo\n\
    \  do it = 1, 2\n    call relax_red(u)\n    call relax_black(u)\n  enddo\n\
    \  print *, u(1), u(%d), u(%d)\nend\n\
     subroutine relax_red(u)\n  real u(%d)\n  integer i\n\
    \  do i = 3, %d, 2\n    u(i) = 0.5 * (u(i-1) + u(i+1))\n  enddo\nend\n\
     subroutine relax_black(u)\n  real u(%d)\n  integer i\n\
    \  do i = %d, %d, %d\n    u(i) = 0.5 * (u(i-1) + u(i+1))\n  enddo\nend\n"
    n dist n (n / 2) n n (n - 1) n lo hi black

(* Each cell runs verified, the cost analyzer's counters and makespan
   equal a compute-free simulated run's, and the verifier finds no
   error. *)
let redblack_variants () =
  List.iter
    (fun (n, dist, black) ->
      let cp = Driver.check_source (redblack_src ~n ~dist ~black) in
      List.iter
        (fun strategy ->
          List.iter
            (fun nprocs ->
              let what =
                Fmt.str "n=%d %s black step %d, %s P=%d" n dist black
                  (Options.strategy_name strategy) nprocs
              in
              let r = Driver.run ~opts:{ Options.default with nprocs; strategy } cp in
              if not (Driver.verified r) then Alcotest.failf "%s: differs from the sequential run" what;
              let c, stats, full_elapsed = Test_cost.face_off ~nprocs ~strategy cp in
              check (what ^ ": prediction is exact") true c.Fd_verify.Cost.exact;
              Test_cost.assert_counters ~what c stats;
              Test_cost.assert_makespan ~what c stats ~full_elapsed;
              let v, _ = Driver.check cp r.Driver.compiled in
              List.iter
                (fun (f : Fd_verify.Finding.t) ->
                  if f.Fd_verify.Finding.severity = Fd_verify.Finding.Error then
                    Alcotest.failf "%s: %a" what Fd_verify.Finding.pp f)
                v.Fd_verify.Verify.findings)
            [ 1; 2; 3; 4; 7; 16 ])
        strategies)
    (List.concat_map
       (fun n -> List.concat_map (fun dist -> [ (n, dist, 2); (n, dist, -2) ]) [ "block"; "cyclic" ])
       [ 9; 10; 127; 128; 130; 131 ])

(* The red sweep's distances (one element, half an iteration) are not
   carried, so interproc partitions its loop. *)
let redblack_red_partitioned () =
  let compiled =
    Driver.compile_source ~opts:{ Options.default with nprocs = 4 } (Fd_workloads.Stencil.redblack ())
  in
  let red = List.filter (fun d -> d.Codegen.d_proc = "relax_red") (Codegen.decisions compiled) in
  check_int "one loop in relax_red" 1 (List.length red);
  let text = Fmt.str "%a" Codegen.pp_decision (List.hd red) in
  if not (Str.string_match (Str.regexp ".*partitioned on u dim 1") text 0) then
    Alcotest.failf "relax_red's loop is not partitioned: %s" text

(* A descending loop is partitioned like an ascending one and runs each
   processor's part from the top: [do i = n, 1, -1] with compile-time
   bounds (block) and with run-time bounds in a callee (block and
   cyclic) runs verified and cost-exact, and the red-black black sweep
   with step -2 is partitioned exactly where its +2 twin is. *)
let negative_step_partitioned () =
  let concrete =
    "program neg\n  parameter (n = 64)\n  real a(n), b(n)\n  integer i\n\
    \  distribute a(block)\n  distribute b(block)\n\
    \  do i = 1, n\n    b(i) = float(i)\n  enddo\n\
    \  do i = n, 1, -1\n    a(i) = b(i)\n  enddo\n  print *, a(1), a(n)\nend\n"
  and symbolic dist =
    Fmt.str
      "program neg\n  real a(64), b(64)\n  integer i, m\n\
      \  distribute a(%s)\n  distribute b(%s)\n\
      \  do i = 1, 64\n    b(i) = float(i)\n  enddo\n  m = 61\n\
      \  call rev(a, b, m)\n  print *, a(1), a(61), a(64)\nend\n\
      subroutine rev(a, b, m)\n  real a(64), b(64)\n  integer m, i\n\
      \  do i = m, 2, -1\n    a(i) = 2.0 * b(i)\n  enddo\nend\n"
      dist dist
  in
  List.iter
    (fun src ->
      let cp = Driver.check_source src in
      List.iter
        (fun nprocs ->
          let opts = { Options.default with nprocs } in
          let r = Driver.run ~opts cp in
          let what = Fmt.str "P=%d" nprocs in
          if not (Driver.verified r) then Alcotest.failf "%s: differs from the sequential run" what;
          List.iter
            (fun d ->
              let text = Fmt.str "%a" Codegen.pp_decision d in
              if not (Str.string_match (Str.regexp ".*partitioned") text 0) then
                Alcotest.failf "%s: %s" what text)
            (Codegen.decisions r.Driver.compiled);
          let c, stats, full_elapsed = Test_cost.face_off ~nprocs ~strategy:Options.Interproc cp in
          check (what ^ ": prediction is exact") true c.Fd_verify.Cost.exact;
          Test_cost.assert_counters ~what c stats;
          Test_cost.assert_makespan ~what c stats ~full_elapsed)
        [ 4; 3; 7 ])
    [ concrete; symbolic "block"; symbolic "cyclic" ];
  let black ~n ~dist ~step nprocs =
    let compiled =
      Driver.compile ~opts:{ Options.default with nprocs }
        (Driver.check_source (redblack_src ~n ~dist ~black:step))
    in
    List.map (Fmt.str "%a" Codegen.pp_decision)
      (List.filter (fun d -> d.Codegen.d_proc = "relax_black") (Codegen.decisions compiled))
    |> List.map (fun t -> Str.string_match (Str.regexp ".*partitioned on") t 0)
  in
  List.iter
    (fun (n, dist, nprocs) ->
      if black ~n ~dist ~step:2 nprocs <> black ~n ~dist ~step:(-2) nprocs then
        Alcotest.failf "n=%d %s P=%d: the -2 black sweep is partitioned unlike its +2 twin" n dist nprocs)
    (List.concat_map
       (fun n -> List.concat_map (fun dist -> [ (n, dist, 4); (n, dist, 7) ]) [ "block"; "cyclic" ])
       [ 9; 10; 127; 128 ])

let suite =
  suite
  @ [
      Alcotest.test_case "negative steps: partitioned, verified, cost exact" `Quick
        negative_step_partitioned;
      Alcotest.test_case "red-black variants: verified, cost exact, no errors" `Quick
        redblack_variants;
      Alcotest.test_case "red-black: relax_red partitioned under interproc" `Quick
        redblack_red_partitioned;
    ]
