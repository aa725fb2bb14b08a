(* Sequential reference interpreter for checked mini-Fortran-D programs.
   ALIGN/DISTRIBUTE are no-ops; arrays are global.  Used as ground truth
   for verifying compiled SPMD executions, and as the baseline
   "one-processor" time estimate.

   It compiles the *source* AST through the shared resolved evaluator
   {!Eval}, so it stays independent of the Fortran D compiler. *)

open Fd_frontend

type result = {
  arrays : (string * Storage.array_obj) list;  (* main-program arrays *)
  outputs : string list;
  flops : int;
  mem_ops : int;
  seq_time : float;  (* estimated sequential execution time *)
}

let replicated name (info : Symtab.array_info) =
  { Node.ad_name = name; ad_elt = info.Symtab.elt; ad_layout = Layout.replicated info.Symtab.dims }

(* The arrays and scalars of a symbol table whose names pass [keep]. *)
let decls ?(keep = fun _ -> true) symtab =
  Symtab.fold symtab
    (fun name entry (arrays, scalars) ->
      match entry with
      | Symtab.Array info when keep name -> (replicated name info :: arrays, scalars)
      | Symtab.Scalar ty when keep name -> (arrays, (name, ty) :: scalars)
      | _ -> (arrays, scalars))
    ([], [])

let compile ~outputs ~on_branch (cp : Sema.checked_program) =
  let main = Sema.find_unit_exn cp cp.Sema.main in
  (* COMMON storage: the blocks the main program declares *)
  let arrays, scalars = decls ~keep:(Symtab.is_common main.Sema.symtab) main.Sema.symtab in
  let globals = Eval.globals ~arrays ~scalars in
  let units = Hashtbl.create 8 in
  let compiled =
    List.map
      (fun (cu : Sema.checked_unit) ->
        let symtab = cu.Sema.symtab in
        let arrays, scalars = decls symtab in
        let u =
          Eval.unit_code ~formals:cu.Sema.unit_.Ast.formals ~arrays ~scalars
            ~is_common:(Symtab.is_common symtab)
        in
        let name = cu.Sema.unit_.Ast.uname in
        if not (Hashtbl.mem units name) then Hashtbl.replace units name u;
        (cu, u))
      cp.Sema.units
  in
  List.iter
    (fun ((cu : Sema.checked_unit), (u : Eval.unit_code)) ->
      let sc =
        { Eval.unit = u; globals; units;
          params = Symtab.param_value cu.Sema.symtab;
          hook = (fun _ _ _ -> None) }
      in
      let rec stmt (s : Ast.stmt) : Eval.env -> unit =
        match s.Ast.kind with
        | Ast.Assign (lhs, rhs) -> Eval.assign sc lhs rhs
        | Ast.Do { var; lo; hi; step; body } ->
          Eval.do_loop sc ~var ~lo ~hi ~step (block body)
        | Ast.If { cond; then_; else_ } ->
          let cond = Eval.bool_expr sc cond and then_ = block then_ in
          let else_ = block else_ and loc = s.Ast.loc in
          fun env ->
            let taken = cond env in
            (match on_branch with Some f -> f loc taken | None -> ());
            if taken then then_ env else else_ env
        | Ast.Call (name, args) -> Eval.call sc name args
        | Ast.Align _ | Ast.Distribute _ -> ignore  (* placement is advisory sequentially *)
        | Ast.Return -> fun _ -> raise Eval.Return_signal
        | Ast.Print args ->
          let args = List.map (Eval.expr sc) args in
          fun env ->
            let line = String.concat " " (List.map (fun a -> Value.to_string (a env)) args) in
            outputs := line :: !outputs
      and block body = Eval.block (List.map stmt body) in
      u.Eval.u_body <- block cu.Sema.unit_.Ast.body)
    compiled;
  (globals, Hashtbl.find units main.Sema.unit_.Ast.uname)

let run ?(config = Config.ipsc860 ~nprocs:1 ()) ?on_branch
    (cp : Sema.checked_program) : result =
  let outputs = ref [] in
  let globals, main = compile ~outputs ~on_branch cp in
  let stats = Stats.create 1 in
  let env = Eval.env ~proc:0 ~nprocs:1 ~strict:false ~config ~stats in
  let arrays =
    Hashtbl.fold
      (fun name b acc -> match b with Eval.Barray o -> (name, o) :: acc | _ -> acc)
      (Eval.run_main env ~globals main) []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  { arrays;
    outputs = List.rev !outputs;
    flops = stats.Stats.flops;
    mem_ops = stats.Stats.mem_ops;
    seq_time =
      (float_of_int stats.Stats.flops *. config.Config.flop)
      +. (float_of_int stats.Stats.mem_ops *. config.Config.mem_op) }
