(* Bit-identity golden for both interpreters.

   [sim.golden] pins, for every committed example x {interproc,
   immediate, runtime} x P in {4, 16}: every Stats counter, each
   processor's virtual clock and busy time (as exact hex floats), the
   makespan, the PRINT lines, and a digest of every processor's final
   array storage; and, per example, the sequential interpreter's flops,
   mem_ops, outputs and a digest of its final arrays.  It also pins
   which strict-validity violation a statement holding two bad reads
   reports, which fixes the evaluation order of subexpressions.

   A change to either interpreter, to Storage, or to the scheduler's
   time accounting must leave this file byte-identical.  On a mismatch
   the rendering is written to [sim.golden.actual] next to the test
   binary. *)

open Fd_frontend
open Fd_core
open Fd_machine

let examples_dir =
  if Sys.file_exists "../examples" then "../examples" else "examples"

let golden_file = if Sys.file_exists "sim.golden" then "sim.golden" else "test/sim.golden"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let examples =
  [ "fig1.fd"; "fig4.fd"; "fig15.fd"; "jacobi1d.fd"; "jacobi2d.fd";
    "redblack.fd"; "multi_array.fd"; "dgefa.fd"; "adi_dynamic.fd";
    "adi_static.fd" ]

let strategies =
  [ ("interproc", Options.Interproc); ("immediate", Options.Immediate);
    ("runtime", Options.Runtime_resolution) ]

let hexs a = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") a))

(* Element values, validity bytes, layout and bounds of each array, in
   name order, reduced to one digest. *)
let arrays_digest (arrays : (string * Storage.array_obj) list) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, (o : Storage.array_obj)) ->
      Buffer.add_string b name;
      Buffer.add_string b (Fmt.str "%a" Layout.pp o.Storage.layout);
      Array.iter (fun (lo, hi) -> Printf.bprintf b "[%d:%d]" lo hi) o.Storage.bounds;
      (match Storage.data o with
      | Storage.Fdata a -> Array.iter (Printf.bprintf b "%h,") a
      | Storage.Idata a -> Array.iter (Printf.bprintf b "%d,") a
      | Storage.Bdata a -> Array.iter (fun x -> Buffer.add_char b (if x then 'T' else 'F')) a);
      Buffer.add_bytes b (Storage.valid o))
    (List.sort (fun (a, _) (b, _) -> compare a b) arrays);
  Digest.to_hex (Digest.string (Buffer.contents b))

let frame_arrays (frame : Interp.frame) =
  Hashtbl.fold
    (fun name b acc -> match b with Interp.Barray o -> (name, o) :: acc | _ -> acc)
    frame []

let render_cell b ~example ~sname ~strategy ~nprocs src =
  let opts = { Options.default with Options.nprocs; strategy } in
  let prog = (Driver.compile_source ~opts src).Codegen.program in
  let st, frames = Scheduler.run (Config.ipsc860 ~nprocs ()) prog in
  Printf.bprintf b "%s %s P=%d\n" example sname nprocs;
  Printf.bprintf b
    "  messages=%d message_bytes=%d bcasts=%d bcast_bytes=%d remaps=%d \
     remap_marks=%d remap_bytes=%d flops=%d mem_ops=%d\n"
    st.Stats.messages st.Stats.message_bytes st.Stats.bcasts st.Stats.bcast_bytes
    st.Stats.remaps st.Stats.remap_marks st.Stats.remap_bytes st.Stats.flops
    st.Stats.mem_ops;
  Printf.bprintf b "  makespan=%h max_wait=%h\n" (Stats.elapsed st) st.Stats.max_wait;
  Printf.bprintf b "  clocks %s\n" (hexs st.Stats.clocks);
  Printf.bprintf b "  busy %s\n" (hexs st.Stats.busy);
  List.iter (Printf.bprintf b "  print %s\n") (Stats.outputs st);
  Printf.bprintf b "  storage %s\n"
    (String.concat " " (Array.to_list (Array.map (fun f -> arrays_digest (frame_arrays f)) frames)))

let render_seq b ~example src =
  let r = Seq_interp.run (Sema.check_source src) in
  Printf.bprintf b "%s seq flops=%d mem_ops=%d arrays=%s\n" example
    r.Seq_interp.flops r.Seq_interp.mem_ops (arrays_digest r.Seq_interp.arrays);
  List.iter (Printf.bprintf b "  print %s\n") r.Seq_interp.outputs

(* --- Which of two bad reads strict validity reports ----------------------- *)

(* p1 evaluates [stmt]; every element of x and y that it reads is owned
   by p0 and never sent, so each read is a strict-validity violation and
   the reported one is the first the evaluator performs. *)
let invalid_read_cases =
  let open Ast in
  let x i = Ref ("x", [ Int_const i ]) and y i = Ref ("y", [ Int_const i ]) in
  [ ("binop", Node.N_assign (Var "v", Bin (Add, x 1, y 2)));
    ("rhs before lhs subscripts", Node.N_assign (Ref ("y", [ y 3 ]), x 1));
    ("max arguments", Node.N_assign (Var "v", Funcall ("max", [ y 2; x 1 ])));
    ("mod arguments", Node.N_assign (Var "v", Funcall ("mod", [ x 3; y 2 ])));
    ("sign arguments", Node.N_assign (Var "v", Funcall ("sign", [ y 4; x 2 ])));
    ("short circuit", Node.N_assign (Var "w", Bin (And, Bin (Lt, x 4, y 1), Bin (Gt, y 3, x 1))));
    ("negation", Node.N_assign (Var "v", Bin (Sub, Un (Neg, y 1), x 2)));
    ("print list", Node.N_print [ x 2; y 3 ]);
    ("call actuals", Node.N_call ("s", [ Bin (Mul, x 3, Int_const 2); y 4 ])) ]

let render_invalid_reads b =
  let l = { Layout.bounds = [ (1, 8) ]; dist_dim = Some 0; dist = Layout.Block 4 } in
  let arrays =
    List.map (fun n -> { Node.ad_name = n; ad_elt = Ast.Real; ad_layout = l }) [ "x"; "y" ]
  in
  let myp = Ast.Var "my$p" in
  List.iter
    (fun (name, stmt) ->
      let main =
        { Node.np_name = "m"; np_formals = []; np_arrays = arrays;
          np_scalars = [ ("v", Ast.Real); ("w", Ast.Logical) ];
          np_body =
            [ Node.N_assign (myp, Ast.Funcall ("myproc", []));
              Node.N_if
                { cond = Ast.Bin (Ast.Eq, myp, Ast.Int_const 1); then_ = [ stmt ];
                  else_ = []; loc = Fd_support.Loc.none } ] }
      in
      let sub =
        { Node.np_name = "s"; np_formals = [ "a"; "c" ]; np_arrays = [];
          np_scalars = [ ("a", Ast.Real); ("c", Ast.Real) ]; np_body = [] }
      in
      let prog =
        { Node.n_main = "m"; n_nprocs = 2; n_common_arrays = [];
          n_common_scalars = []; n_procs = [ main; sub ] }
      in
      let outcome =
        match Scheduler.run (Config.make ~nprocs:2 ()) prog with
        | _ -> "no violation"
        | exception Scheduler.Sim_error e -> Scheduler.error_to_string e
      in
      Printf.bprintf b "invalid-read %s: %s\n" name outcome)
    invalid_read_cases

let render () =
  let b = Buffer.create 65536 in
  List.iter
    (fun example ->
      let src = read_file (Filename.concat examples_dir example) in
      render_seq b ~example src;
      List.iter
        (fun (sname, strategy) ->
          List.iter
            (fun nprocs -> render_cell b ~example ~sname ~strategy ~nprocs src)
            [ 4; 16 ])
        strategies)
    examples;
  render_invalid_reads b;
  Buffer.contents b

let golden () =
  let actual = render () in
  let expected = if Sys.file_exists golden_file then read_file golden_file else "" in
  if actual <> expected then begin
    let oc = open_out_bin "sim.golden.actual" in
    output_string oc actual;
    close_out oc;
    let lines s = String.split_on_char '\n' s in
    let rec first_diff n = function
      | e :: es, a :: as_ -> if e = a then first_diff (n + 1) (es, as_) else (n, e, a)
      | e :: _, [] -> (n, e, "<end>")
      | [], a :: _ -> (n, "<end>", a)
      | [], [] -> (n, "", "")
    in
    let n, e, a = first_diff 1 (lines expected, lines actual) in
    Alcotest.failf "sim.golden differs at line %d:\n  expected: %s\n  actual:   %s" n e a
  end

let suite = [ Alcotest.test_case "interpreters bit-identical to sim.golden" `Slow golden ]
