(* Edit-time local summaries (ParaScope phase 1, paper Section 4).

   After an "editing session" each procedure's interprocedurally relevant
   facts are summarized so whole-program compilation never has to re-read
   unchanged sources: call sites, formals, local mod/ref, the presence of
   dynamic decomposition statements, loop skeleton, and content digests
   used by recompilation analysis. *)

open Fd_frontend

module S = Side_effects.S

type t = {
  proc : string;
  formals : string list;
  array_decls : (string * (int * int) list) list;
  call_sigs : (string * int) list;  (* callee name, argument count, in order *)
  local_mod : S.t;
  local_ref : S.t;
  decomp_stmts : int;  (* number of ALIGN/DISTRIBUTE statements *)
  loop_depth : int;    (* maximum loop nesting depth *)
  source_digest : string;
}

let rec max_depth stmts =
  List.fold_left
    (fun acc (s : Ast.stmt) ->
      match s.Ast.kind with
      | Ast.Do d -> max acc (1 + max_depth d.body)
      | Ast.If i -> max acc (max (max_depth i.then_) (max_depth i.else_))
      | _ -> acc)
    0 stmts

let of_unit (cu : Sema.checked_unit) : t =
  let u = cu.Sema.unit_ in
  let effects = Side_effects.local_effects cu in
  let calls = ref [] in
  let decomps = ref 0 in
  Ast.iter_stmts
    (fun s ->
      match s.Ast.kind with
      | Ast.Call (name, args) -> calls := (name, List.length args) :: !calls
      | Ast.Align _ | Ast.Distribute _ -> incr decomps
      | _ -> ())
    u.Ast.body;
  {
    proc = u.Ast.uname;
    formals = u.Ast.formals;
    array_decls =
      List.map (fun (n, info) -> (n, info.Symtab.dims)) (Symtab.arrays cu.Sema.symtab);
    call_sigs = List.rev !calls;
    local_mod = effects.Side_effects.gmod;
    local_ref = effects.Side_effects.gref;
    decomp_stmts = !decomps;
    loop_depth = max_depth u.Ast.body;
    source_digest = Digest.to_hex (Digest.string (Fmt.str "%a" Ast_printer.pp_punit u));
  }

(* The caller-visible interface: everything a *caller's* compilation can
   depend on through this procedure.  Used by recompilation tests. *)
let interface_digest (t : t) : string =
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          [ t.proc;
            String.concat "," t.formals;
            String.concat ","
              (List.map
                 (fun (n, dims) ->
                   n ^ ":" ^ String.concat "x"
                     (List.map (fun (a, b) -> Printf.sprintf "%d..%d" a b) dims))
                 t.array_decls);
            String.concat "," (List.map (fun (c, n) -> Printf.sprintf "%s/%d" c n) t.call_sigs);
            String.concat "," (S.elements t.local_mod);
            String.concat "," (S.elements t.local_ref);
            string_of_int t.decomp_stmts ]))

let pp ppf t =
  Fmt.pf ppf "@[<v>summary %s(%s)@ arrays: %s@ calls: %s@ mod: %s@ ref: %s@ decomp stmts: %d, loop depth: %d@]"
    t.proc
    (String.concat "," t.formals)
    (String.concat "," (List.map fst t.array_decls))
    (String.concat "," (List.map fst t.call_sigs))
    (String.concat "," (S.elements t.local_mod))
    (String.concat "," (S.elements t.local_ref))
    t.decomp_stmts t.loop_depth
