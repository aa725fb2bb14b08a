(* Compiler diagnostics.

   Three severities and three delivery disciplines:

   - [Error]: the input program is wrong.  The frontend *recovers* and
     accumulates errors in a per-run {!sink} (parser statement/unit
     synchronization, sema fallback typing), so one run reports every
     diagnosable error; backend passes still fail fast via {!error}
     ({!Compile_error}).  A sink with errors is converted into one
     {!Compile_errors} carrying the whole ordered batch.
   - [Warning]: recorded in a sink and never fatal (outside --strict).
   - [Internal]: a contained compiler crash — a would-be [failwith] or
     [assert false], attributed to the pass that hit it.  Raised as
     {!Internal_error} and rendered by the driver as a structured crash
     report, never a bare backtrace.

   The per-run sink is explicit state threaded through Pipeline/Driver
   (preparation for a concurrent `fdc serve`: no cross-request
   bleeding).  One process-global sink, {!global}, remains; nothing in
   the libraries writes to it. *)

type severity = Warning | Error | Internal

type t = {
  severity : severity;
  loc : Loc.t;
  end_ : Loc.t option;  (* end of the offending span (exclusive column) *)
  pass : string option;  (* attributed pass/subsystem, for Internal *)
  message : string;
}

exception Compile_error of t
exception Compile_errors of t list
exception Internal_error of t

let make ?end_ ?pass severity loc message =
  { severity; loc; end_; pass; message }

let error ?(loc = Loc.none) fmt =
  Format.kasprintf
    (fun message -> raise (Compile_error (make Error loc message)))
    fmt

let internal ?(loc = Loc.none) ~pass fmt =
  Format.kasprintf
    (fun message -> raise (Internal_error (make ~pass Internal loc message)))
    fmt

let pp_severity ppf = function
  | Warning -> Fmt.string ppf "warning"
  | Error -> Fmt.string ppf "error"
  | Internal -> Fmt.string ppf "internal error"

let pp ppf { severity; loc; message; pass; _ } =
  Fmt.pf ppf "%a: %a" Loc.pp loc pp_severity severity;
  (match pass with Some p -> Fmt.pf ppf " [pass %s]" p | None -> ());
  Fmt.pf ppf ": %s" message

let to_string t = Fmt.str "%a" pp t

(* Caret/underline snippet: the cited source line with the diagnosed
   span marked.  [src] is the full text of [t.loc.file]. *)
let pp_snippet ~src ppf t =
  let line_no = t.loc.Loc.line in
  if line_no >= 1 then begin
    let lines = String.split_on_char '\n' src in
    match List.nth_opt lines (line_no - 1) with
    | None -> ()
    | Some text ->
      let width = String.length text in
      let start_col = max 1 (min t.loc.Loc.col (width + 1)) in
      let end_col =
        match t.end_ with
        | Some e when e.Loc.line = line_no && e.Loc.col > start_col ->
          min e.Loc.col (width + 2)
        | _ -> start_col + 1
      in
      Fmt.pf ppf "  %4d | %s@." line_no text;
      Fmt.pf ppf "       | %s%s@."
        (String.make (start_col - 1) ' ')
        (String.make (max 1 (end_col - start_col)) '^')
  end

let severity_rank = function Error -> 0 | Internal -> 0 | Warning -> 1

(* Presentation order: by source position, errors before warnings at
   the same statement, unlocated diagnostics last. *)
let compare_diag a b =
  let located l = l <> Loc.none in
  let c = compare (not (located a.loc)) (not (located b.loc)) in
  if c <> 0 then c
  else
    let c = compare a.loc.Loc.file b.loc.Loc.file in
    if c <> 0 then c
    else
      let c = compare (a.loc.Loc.line, a.loc.Loc.col) (b.loc.Loc.line, b.loc.Loc.col) in
      if c <> 0 then c
      else
        let c = compare (severity_rank a.severity) (severity_rank b.severity) in
        if c <> 0 then c else compare a.message b.message

let sort ds = List.sort_uniq compare_diag ds

let to_json t =
  Json.Obj
    (("severity",
      Json.Str
        (match t.severity with
        | Warning -> "warning"
        | Error -> "error"
        | Internal -> "internal"))
     :: ("message", Json.Str t.message)
     ::
     (if t.loc <> Loc.none then
        [ ("file", Json.Str t.loc.Loc.file);
          ("line", Json.Int t.loc.Loc.line);
          ("col", Json.Int t.loc.Loc.col) ]
      else [])
    @ (match t.end_ with
      | Some e -> [ ("end_line", Json.Int e.Loc.line); ("end_col", Json.Int e.Loc.col) ]
      | None -> [])
    @ (match t.pass with Some p -> [ ("pass", Json.Str p) ] | None -> []))

let report_json ds =
  let errors =
    List.length (List.filter (fun d -> d.severity <> Warning) ds)
  in
  Json.Obj
    [ ("ok", Json.Bool (errors = 0));
      ("errors", Json.Int errors);
      ("warnings", Json.Int (List.length ds - errors));
      ("diagnostics", Json.List (List.map to_json ds)) ]

(* --- Per-run accumulating sink ---------------------------------------- *)

type sink = { mutable items : t list (* reversed *); mutable nerrors : int }

let sink () = { items = []; nerrors = 0 }

let report s d =
  s.items <- d :: s.items;
  if d.severity <> Warning then s.nerrors <- s.nerrors + 1

let error_to s ?(loc = Loc.none) fmt =
  Format.kasprintf (fun message -> report s (make Error loc message)) fmt

let warn_to s ?(loc = Loc.none) fmt =
  Format.kasprintf (fun message -> report s (make Warning loc message)) fmt

let diags s = List.rev s.items

let warnings_of s =
  List.filter (fun d -> d.severity = Warning) (diags s)

let take_warnings_of s =
  let ws = warnings_of s in
  s.items <- List.filter (fun d -> d.severity <> Warning) s.items;
  ws

let clear s =
  s.items <- [];
  s.nerrors <- 0

(* Raise the accumulated batch (errors and warnings, in source order)
   as one [Compile_errors] if any error was recorded. *)
let raise_if_errors s =
  if s.nerrors > 0 then begin
    let ds = sort (diags s) in
    clear s;
    raise (Compile_errors ds)
  end

(* Left from the pre-sink API, which kept one global warning list.  No
   library code writes here; the benchmark driver still clears it. *)
let global = sink ()
