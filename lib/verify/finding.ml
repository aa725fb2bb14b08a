(* Structured findings produced by the static SPMD verifier.

   A finding is one diagnosed property of the program, graded by how
   certain and how damning it is:

   - [Error]: the analysis proved the program fails dynamically (static
     deadlock, divergent collective, send of unowned data, out-of-bounds
     section, ...).  [fdc check] exits nonzero.
   - [Warning]: a lint — the program may run, but something is dead,
     redundant, or suspicious (empty sends, recv of already-owned data,
     undistributed decompositions).  Nonzero exit only under [--strict].
   - [Info]: coverage notes — a region the analysis could not verify
     (data-dependent control flow, unknown message endpoints) or an
     analysis budget cutoff.  Never affects the exit code. *)

open Fd_support

type severity = Error | Warning | Info

type t = {
  severity : severity;
  kind : string;  (* stable kebab-case identifier, e.g. "static-deadlock" *)
  message : string;
  loc : Loc.t;  (* source statement the finding cites; Loc.none if unknown *)
  proc : int option;  (* processor exhibiting the problem, when specific *)
  tag : int option;  (* message tag, for point-to-point findings *)
  site : int option;  (* collective site, for congruence findings *)
}

let make ?(loc = Loc.none) ?proc ?tag ?site severity kind message =
  { severity; kind; message; loc; proc; tag; site }

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

(* Stable presentation order: errors first, then by source position. *)
let compare a b =
  let c = compare (severity_rank a.severity) (severity_rank b.severity) in
  if c <> 0 then c
  else
    let c = compare a.loc.Loc.line b.loc.Loc.line in
    if c <> 0 then c else compare (a.kind, a.message) (b.kind, b.message)

let sort fs = List.sort_uniq compare fs

let errors fs = List.filter (fun f -> f.severity = Error) fs

let counts fs =
  List.fold_left
    (fun (e, w, i) f ->
      match f.severity with
      | Error -> (e + 1, w, i)
      | Warning -> (e, w + 1, i)
      | Info -> (e, w, i + 1))
    (0, 0, 0) fs

let pp ppf f =
  Fmt.pf ppf "%s[%s]" (severity_name f.severity) f.kind;
  if f.loc <> Loc.none then Fmt.pf ppf " %a" Loc.pp f.loc;
  Fmt.pf ppf ": %s" f.message

let to_json f =
  let opt name v rest =
    match v with Some x -> (name, Json.Int x) :: rest | None -> rest
  in
  Json.Obj
    (("severity", Json.Str (severity_name f.severity))
     :: ("kind", Json.Str f.kind)
     :: ("message", Json.Str f.message)
     ::
     (if f.loc <> Loc.none then
        [
          ("file", Json.Str f.loc.Loc.file);
          ("line", Json.Int f.loc.Loc.line);
          ("col", Json.Int f.loc.Loc.col);
        ]
      else [])
    @ opt "proc" f.proc (opt "tag" f.tag (opt "site" f.site [])))

let report_json fs =
  let e, w, i = counts fs in
  Json.Obj
    [
      ("ok", Json.Bool (e = 0));
      ("errors", Json.Int e);
      ("warnings", Json.Int w);
      ("infos", Json.Int i);
      ("findings", Json.List (List.map to_json fs));
    ]
