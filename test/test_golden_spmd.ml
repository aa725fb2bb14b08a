(* Bit-identity golden for the code generator.

   [spmd.golden] pins, for every committed example x {interproc,
   immediate, runtime} x P in {1, 3, 4, 7, 16, 64, 1024}, the node
   program as [fdc spmd] prints it and every procedure's export record
   (its summary and its digest over all fields), sorted by procedure.
   The P = 64 and 1024 cells pin the high-P closed forms.  It
   also pins one digest line per cell for two sets of generated
   programs:

   - the first 100 fuzz cases the frontend accepts, each under its own
     strategy at P=5 (the cells [verify.golden] uses);
   - 25 COMMON-block programs x the three strategies at P=5.

   The example cells compile at the default remap level (kills); fig15
   and adi_dynamic are also pinned under interproc at P = 4 at the
   three lower levels, so each of [Dynamic_decomp]'s passes is pinned
   on its own.

   A refactor of [Codegen] or of the call-graph translations it uses
   must leave this file byte-identical.  On a mismatch the rendering is
   written to [spmd.golden.actual] next to the test binary. *)

open Fd_support
open Fd_core

let examples_dir =
  if Sys.file_exists "../examples" then "../examples" else "examples"

let golden_file =
  if Sys.file_exists "spmd.golden" then "spmd.golden" else "test/spmd.golden"

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

(* The node program and the sorted export records of one compile, or
   the compile error. *)
let compile_text ?(remap_level = Options.default.Options.remap_level) ~strategy ~nprocs cp =
  let opts = { Options.default with Options.nprocs; strategy; remap_level } in
  match Driver.compile ~opts cp with
  | exception (Diag.Compile_error _ | Diag.Compile_errors _) -> "compile error\n"
  | compiled ->
    let exports =
      Hashtbl.fold (fun _ ex acc -> ex :: acc) compiled.Codegen.state.Codegen.exports []
      |> List.sort (fun a b -> String.compare a.Exports.ex_proc b.Exports.ex_proc)
    in
    Fmt.str "%a@.%a" Fd_machine.Node.pp_program compiled.Codegen.program
      Fmt.(list ~sep:nop (fun ppf ex ->
        Fmt.pf ppf "%a@.digest %s@." Exports.pp ex (Exports.digest ex)))
      exports

let render_example b file =
  let cp = Driver.check_source ~file (read_file (Filename.concat examples_dir file)) in
  List.iter
    (fun (sname, strategy) ->
      List.iter
        (fun nprocs ->
          Printf.bprintf b "=== %s %s P=%d\n%s" file sname nprocs
            (compile_text ~strategy ~nprocs cp))
        [ 1; 3; 4; 7; 16; 64; 1024 ])
    strategies

let render_remap_levels b =
  List.iter
    (fun file ->
      let cp = Driver.check_source ~file (read_file (Filename.concat examples_dir file)) in
      List.iter
        (fun remap_level ->
          Printf.bprintf b "=== %s interproc P=4 remap=%s\n%s" file
            (Options.remap_level_name remap_level)
            (compile_text ~remap_level ~strategy:Options.Interproc ~nprocs:4 cp))
        [ Options.Remap_none; Options.Remap_live; Options.Remap_hoist ])
    [ "fig15.fd"; "adi_dynamic.fd" ]

let digest_line b name ~sname ~strategy cp =
  Printf.bprintf b "%s %s P=5 %s\n" name sname
    (Digest.to_hex (Digest.string (compile_text ~strategy ~nprocs:5 cp)))

(* The first [n] fuzz cases whose source the frontend accepts. *)
let render_generated b n =
  let rec go seed left =
    if left > 0 then begin
      let src, strategy = Fd_fuzz.Harness.gen_case seed in
      match Driver.check_source src with
      | exception (Diag.Compile_error _ | Diag.Compile_errors _) -> go (seed + 1) left
      | cp ->
        let sname, _ = List.find (fun (_, s) -> s = strategy) strategies in
        digest_line b (Printf.sprintf "gen_case %d" seed) ~sname ~strategy cp;
        go (seed + 1) (left - 1)
    end
  in
  go 1 n

let render_commons b n =
  let st = Random.State.make [| 0xc0; 0x44; 0x02 |] in
  for i = 1 to n do
    let cp = Driver.check_source (Fd_workloads.Gen.random_source ~commons:true st) in
    List.iter
      (fun (sname, strategy) ->
        digest_line b (Printf.sprintf "commons %d" i) ~sname ~strategy cp)
      strategies
  done

let render () =
  let b = Buffer.create 65536 in
  List.iter (render_example b) examples;
  render_remap_levels b;
  render_generated b 100;
  render_commons b 25;
  Buffer.contents b

let golden () =
  let actual = render () in
  let expected = if Sys.file_exists golden_file then read_file golden_file else "" in
  if actual <> expected then begin
    let oc = open_out_bin "spmd.golden.actual" in
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
    Alcotest.failf "spmd.golden differs at line %d:\n  expected: %s\n  actual:   %s" n e a
  end

let suite =
  [ Alcotest.test_case "node programs and exports bit-identical to spmd.golden" `Slow
      golden ]
