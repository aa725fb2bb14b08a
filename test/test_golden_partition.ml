(* Bit-identity golden for [fdc partition].

   [partition.golden] pins the text [fdc partition] prints, and its
   exit code when that is not 0, for every committed example x
   {interproc, immediate, runtime} x P in {4, 7}.  The text is every
   loop's computation-partition decision, each processor's iteration
   set included, so a change to the partition rule or to the decision
   printer shows here.  On a mismatch the rendering is written to
   [partition.golden.actual] next to the test binary. *)

let examples_dir =
  if Sys.file_exists "../examples" then "../examples" else "examples"

let golden_file =
  if Sys.file_exists "partition.golden" then "partition.golden" else "test/partition.golden"

(* Under [dune runtest] the cwd is _build/default/test, under [dune
   exec] the project root. *)
let fdc_exe =
  if Sys.file_exists "../bin/fdc.exe" then "../bin/fdc.exe"
  else "_build/default/bin/fdc.exe"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let examples =
  [ "fig1.fd"; "fig4.fd"; "fig15.fd"; "jacobi1d.fd"; "jacobi2d.fd";
    "redblack.fd"; "multi_array.fd"; "dgefa.fd"; "adi_dynamic.fd";
    "adi_static.fd" ]

let strategies = [ "interproc"; "immediate"; "runtime" ]

(* What [fdc partition file -s strategy -p nprocs] writes to stdout,
   then its exit code when that is not 0. *)
let partition_text file strategy nprocs =
  let out = Filename.temp_file "fdc" ".out" in
  let code =
    Sys.command
      (Printf.sprintf "%s partition %s -s %s -p %d >%s 2>/dev/null" fdc_exe
         (Filename.quote (Filename.concat examples_dir file))
         strategy nprocs (Filename.quote out))
  in
  let text = read_file out in
  Sys.remove out;
  if code = 0 then text else Printf.sprintf "%sexit %d\n" text code

let render () =
  let b = Buffer.create 65536 in
  List.iter
    (fun file ->
      List.iter
        (fun strategy ->
          List.iter
            (fun nprocs ->
              Printf.bprintf b "=== %s %s P=%d\n%s" file strategy nprocs
                (partition_text file strategy nprocs))
            [ 4; 7 ])
        strategies)
    examples;
  Buffer.contents b

let golden () =
  let actual = render () in
  let expected = if Sys.file_exists golden_file then read_file golden_file else "" in
  if actual <> expected then begin
    let oc = open_out_bin "partition.golden.actual" in
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
    Alcotest.failf "partition.golden differs at line %d:\n  expected: %s\n  actual:   %s" n e a
  end

let suite =
  [ Alcotest.test_case "fdc partition output bit-identical to partition.golden" `Quick
      golden ]
