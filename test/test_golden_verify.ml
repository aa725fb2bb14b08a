(* Bit-identity golden for the static verifier and the cost analyzer.

   [verify.golden] pins, for every committed example x {interproc,
   immediate, runtime} x P in {1, 3, 4, 8, 16, 64, 1024}, for every
   [examples/bad/*.fd] x strategy x P in {1, 4, 16}, and for the first
   100 fuzz cases the frontend accepts, at P=5 under each case's own
   strategy:

   - the source lint findings (once per file);
   - the abstract walk's findings and the skeleton replay's findings,
     in the order the analyses produce them, with their processor, tag
     and site attribution;
   - the whole [Cost.t]: the seven counters, the makespan and every
     float as an exact hex float, the per-processor pieces, the
     critical path, the per-site costs, the assumptions and findings.

   A change to [Absint], [Skeleton] or [Cost] that is meant to keep
   their results must leave this file byte-identical.  On a mismatch
   the rendering is written to [verify.golden.actual] next to the test
   binary. *)

open Fd_support
open Fd_core
open Fd_verify

let examples_dir =
  if Sys.file_exists "../examples" then "../examples" else "examples"

let golden_file =
  if Sys.file_exists "verify.golden" then "verify.golden" else "test/verify.golden"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let examples =
  [ "fig1.fd"; "fig4.fd"; "fig15.fd"; "jacobi1d.fd"; "jacobi2d.fd";
    "redblack.fd"; "multi_array.fd"; "dgefa.fd"; "adi_dynamic.fd";
    "adi_static.fd" ]

let bad_examples () =
  Sys.readdir (Filename.concat examples_dir "bad")
  |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".fd")
  |> List.sort compare
  |> List.map (fun f -> Filename.concat "bad" f)

let strategies =
  [ ("interproc", Options.Interproc); ("immediate", Options.Immediate);
    ("runtime", Options.Runtime_resolution) ]

(* A list prints one item a line while it is short; a long one prints
   its length, the digest of all its items and its first few items. *)
let section b name items =
  let n = List.length items in
  if n <= 12 && List.for_all (fun s -> String.length s <= 300) items then begin
    Printf.bprintf b "  %s %d\n" name n;
    List.iter (Printf.bprintf b "    %s\n") items
  end
  else begin
    Printf.bprintf b "  %s %d md5=%s\n" name n
      (Digest.to_hex (Digest.string (String.concat "\n" items)));
    List.iteri
      (fun i s ->
        if i < 3 then
          Printf.bprintf b "    %s\n"
            (if String.length s > 160 then String.sub s 0 160 ^ "..." else s))
      items
  end

let loc_string = Fmt.str "%a" Loc.pp

let finding (f : Finding.t) =
  let opt name = function Some x -> Printf.sprintf " %s=%d" name x | None -> "" in
  Printf.sprintf "%s[%s]%s%s%s%s: %s"
    (Finding.severity_name f.Finding.severity) f.Finding.kind
    (if f.Finding.loc <> Loc.none then " " ^ loc_string f.Finding.loc else "")
    (opt "proc" f.Finding.proc) (opt "tag" f.Finding.tag) (opt "site" f.Finding.site)
    f.Finding.message

let ipiece (c : Cost.ipiece) =
  Printf.sprintf "[%d,%d] %d,%d" c.Cost.ip_lo c.Cost.ip_hi c.Cost.ip_a c.Cost.ip_b

let fpiece (c : Cost.fpiece) =
  Printf.sprintf "[%d,%d] %h,%h" c.Cost.fp_lo c.Cost.fp_hi c.Cost.fp_a c.Cost.fp_b

let render_cost b (c : Cost.t) =
  Printf.bprintf b
    "  cost messages=%d message_bytes=%d bcasts=%d bcast_bytes=%d remaps=%d \
     remap_marks=%d remap_bytes=%d\n"
    c.Cost.messages c.Cost.message_bytes c.Cost.bcasts c.Cost.bcast_bytes
    c.Cost.remaps c.Cost.remap_marks c.Cost.remap_bytes;
  Printf.bprintf b "  makespan=%h exact=%b events=%d regions_excluded=%d profile_used=%b\n"
    c.Cost.makespan c.Cost.exact c.Cost.events c.Cost.regions_excluded
    c.Cost.profile_used;
  section b "assumptions" c.Cost.assumptions;
  section b "per_proc_messages" (List.map ipiece c.Cost.per_proc_messages);
  section b "per_proc_bytes" (List.map ipiece c.Cost.per_proc_bytes);
  section b "send_seconds" (List.map fpiece c.Cost.send_seconds);
  section b "wait_seconds" (List.map fpiece c.Cost.wait_seconds);
  section b "coll_seconds" (List.map fpiece c.Cost.coll_seconds);
  section b "critical_path"
    (List.map
       (fun (s : Cost.step) ->
         Printf.sprintf "%s %s p%d..p%d %h" s.Cost.st_what (loc_string s.Cost.st_loc)
           s.Cost.st_plo s.Cost.st_phi s.Cost.st_time)
       c.Cost.critical_path);
  section b "sites"
    (List.map
       (fun (s : Cost.site_cost) ->
         Printf.sprintf "%s %s messages=%d bytes=%d bcasts=%d remaps=%d %h" s.Cost.site_what
           (loc_string s.Cost.site_loc) s.Cost.site_messages s.Cost.site_bytes
           s.Cost.site_bcasts s.Cost.site_remaps s.Cost.site_seconds)
       c.Cost.sites);
  section b "cost findings" (List.map finding c.Cost.findings)

let render_cell b ~file ~cp ~profile ~src ~sname ~strategy ~nprocs =
  Printf.bprintf b "%s %s P=%d\n" file sname nprocs;
  let opts = { Options.default with Options.nprocs; strategy } in
  match Driver.compile ~opts cp with
  | exception (Diag.Compile_error _ | Diag.Compile_errors _) ->
    Printf.bprintf b "  compile error\n"
  | compiled ->
    let prog, _ = Break.apply compiled.Codegen.program (Break.scan src) in
    let w = Absint.walk ~nprocs prog in
    Printf.bprintf b "  walk events=%d visits=%d complete=%b\n"
      (List.length w.Absint.events) w.Absint.visits w.Absint.complete;
    section b "walk" (List.map finding w.Absint.findings);
    if w.Absint.complete then
      section b "skeleton"
        (List.map finding
           (Skeleton.run ~nprocs ~fuzzy_tags:w.Absint.fuzzy_tags w.Absint.events));
    render_cost b (Cost.analyze ~profile ~config:(Driver.machine_config opts) prog)

let render_file b ~file ~procs =
  let src = read_file (Filename.concat examples_dir file) in
  match Driver.check_source ~file src with
  | exception (Diag.Compile_error _ | Diag.Compile_errors _) ->
    Printf.bprintf b "%s rejected by the frontend\n" file
  | cp ->
    Printf.bprintf b "%s\n" file;
    section b "lint" (List.map finding (Lint.run cp));
    let profile = Cost.profile_of_seq cp in
    List.iter
      (fun (sname, strategy) ->
        List.iter
          (fun nprocs -> render_cell b ~file ~cp ~profile ~src ~sname ~strategy ~nprocs)
          procs)
      strategies

(* The first [n] fuzz cases whose source the frontend accepts, each
   under the strategy its seed draws, at P=5. *)
let render_generated b n =
  let rec go seed left =
    if left > 0 then begin
      let src, strategy = Fd_fuzz.Harness.gen_case seed in
      match Driver.check_source src with
      | exception (Diag.Compile_error _ | Diag.Compile_errors _) -> go (seed + 1) left
      | cp ->
        let sname, _ = List.find (fun (_, s) -> s = strategy) strategies in
        render_cell b ~file:(Printf.sprintf "gen_case %d" seed) ~cp
          ~profile:(Cost.profile_of_seq cp) ~src ~sname ~strategy ~nprocs:5;
        go (seed + 1) (left - 1)
    end
  in
  go 1 n

let render () =
  let b = Buffer.create 65536 in
  List.iter (fun file -> render_file b ~file ~procs:[ 1; 3; 4; 8; 16; 64; 1024 ]) examples;
  List.iter (fun file -> render_file b ~file ~procs:[ 1; 4; 16 ]) (bad_examples ());
  render_generated b 100;
  Buffer.contents b

let golden () =
  let actual = render () in
  let expected = if Sys.file_exists golden_file then read_file golden_file else "" in
  if actual <> expected then begin
    let oc = open_out_bin "verify.golden.actual" in
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
    Alcotest.failf "verify.golden differs at line %d:\n  expected: %s\n  actual:   %s" n e a
  end

let suite =
  [ Alcotest.test_case "verifier and cost analyzer bit-identical to verify.golden" `Slow
      golden ]
