(* Semantic analysis: builds per-unit symbol tables, resolves
   `ident(args)` into array references vs. intrinsic applications, folds
   PARAMETER constants, and type/shape-checks the whole program.

   Error recovery: every check records its diagnostic into a per-run
   {!Diag.sink} and continues with a benign fallback (a plausible type,
   rank-1 bounds, the unresolved expression), so one pass over the
   program reports every semantic error.  [check]/[check_source]
   without an explicit sink raise the accumulated batch as
   {!Diag.Compile_errors} at the end — callers never receive an
   ill-typed [checked_program]. *)

open Fd_support

let intrinsics = [ "abs"; "max"; "min"; "mod"; "sqrt"; "float"; "int"; "sign" ]

let is_intrinsic name = List.mem name intrinsics

type checked_unit = { unit_ : Ast.punit; symtab : Symtab.t }

type checked_program = {
  units : checked_unit list;
  main : string;  (* name of the main program unit *)
}

let find_unit cp name =
  List.find_opt (fun cu -> String.equal cu.unit_.Ast.uname name) cp.units

let find_unit_exn cp name =
  match find_unit cp name with
  | Some cu -> cu
  | None -> Diag.error "no program unit named %s" name

(* --- Constant folding over PARAMETER bindings ----------------------- *)

let rec const_eval_int symtab (e : Ast.expr) : int option =
  match e with
  | Ast.Int_const n -> Some n
  | Ast.Var v -> Symtab.param_value symtab v
  | Ast.Un (Ast.Neg, a) -> Option.map (fun n -> -n) (const_eval_int symtab a)
  | Ast.Bin (op, a, b) -> (
    match (const_eval_int symtab a, const_eval_int symtab b) with
    | Some x, Some y -> (
      match op with
      | Ast.Add -> Some (x + y)
      | Ast.Sub -> Some (x - y)
      | Ast.Mul -> Some (x * y)
      | Ast.Div -> if y = 0 then None else Some (x / y)
      | Ast.Pow ->
        if y < 0 then None
        else
          let rec pow acc n = if n = 0 then acc else pow (acc * x) (n - 1) in
          Some (pow 1 y)
      | _ -> None)
    | _ -> None)
  | Ast.Funcall ("max", args) | Ast.Ref ("max", args) ->
    Option.map (List.fold_left max min_int)
      (Listx.all_some (List.map (const_eval_int symtab) args))
  | Ast.Funcall ("min", args) | Ast.Ref ("min", args) ->
    Option.map (List.fold_left min max_int)
      (Listx.all_some (List.map (const_eval_int symtab) args))
  | _ -> None

(* Fallback 1 keeps declared shapes legal (lo=1, hi=1) after an error. *)
let const_eval_int_rec sink symtab loc e =
  match const_eval_int symtab e with
  | Some n -> n
  | None ->
    Diag.error_to sink ~loc "expression must be a compile-time integer constant: %s"
      (Ast_printer.expr_to_string e);
    1

(* --- Symbol table construction -------------------------------------- *)

(* [Symtab.add]/[Symtab.set_common] fail fast on duplicates; in the
   recovering pass we record their diagnostic (attaching the unit
   location) and keep the first declaration. *)
let add_sym sink loc symtab name entry =
  try Symtab.add symtab name entry
  with Diag.Compile_error d -> Diag.report sink { d with loc }

let build_symtab sink (u : Ast.punit) : Symtab.t =
  let symtab = Symtab.create ~unit_name:u.uname ~formal_order:u.formals in
  let const_eval = const_eval_int_rec sink symtab u.uloc in
  List.iter
    (fun decl ->
      match decl with
      | Ast.Dcl_param bindings ->
        List.iter
          (fun (name, value) ->
            let v = const_eval value in
            add_sym sink u.uloc symtab name (Symtab.Param v))
          bindings
      | Ast.Dcl_type (ty, declarators) ->
        List.iter
          (fun (name, dims) ->
            match dims with
            | [] -> add_sym sink u.uloc symtab name (Symtab.Scalar ty)
            | _ ->
              let dims =
                List.map
                  (fun { Ast.dlo; dhi } -> (const_eval dlo, const_eval dhi))
                  dims
              in
              add_sym sink u.uloc symtab name (Symtab.Array { elt = ty; dims }))
          declarators
      | Ast.Dcl_decomposition declarators ->
        List.iter
          (fun (name, dims) ->
            let dims =
              List.map
                (fun { Ast.dlo; dhi } -> (const_eval dlo, const_eval dhi))
                dims
            in
            add_sym sink u.uloc symtab name (Symtab.Decomposition dims))
          declarators
      | Ast.Dcl_common _ -> ())
    u.decls;
  (* second pass: COMMON membership (members may be typed before or after
     the COMMON statement in the source, but both are declarations) *)
  List.iter
    (fun decl ->
      match decl with
      | Ast.Dcl_common (block, names) ->
        List.iter
          (fun name ->
            let ok =
              match Symtab.find symtab name with
              | Some (Symtab.Scalar _ | Symtab.Array _) -> true
              | Some _ ->
                Diag.error_to sink ~loc:u.uloc
                  "COMMON member %s of /%s/ must be a variable" name block;
                false
              | None ->
                Diag.error_to sink ~loc:u.uloc
                  "COMMON member %s of /%s/ is not declared" name block;
                false
            in
            if List.mem name u.formals then
              Diag.error_to sink ~loc:u.uloc "formal %s cannot be in COMMON /%s/"
                name block;
            if ok then
              try Symtab.set_common symtab name block
              with Diag.Compile_error d -> Diag.report sink { d with loc = u.uloc })
          names
      | _ -> ())
    u.decls;
  symtab

(* --- Expression resolution and typing ------------------------------- *)

type ty = Tint | Treal | Tlogical

let dtype_ty = function Ast.Real -> Treal | Ast.Integer -> Tint | Ast.Logical -> Tlogical

let ty_name = function Tint -> "integer" | Treal -> "real" | Tlogical -> "logical"

(* Loop index variables are implicitly integer if not declared. *)
type env = {
  symtab : Symtab.t;
  mutable loop_vars : string list;
  loc : Loc.t;
  sink : Diag.sink;
}

let err env fmt = Diag.error_to env.sink ~loc:env.loc fmt

(* The type and rank (0 for a scalar) a unit declares for [name]. *)
let formal_decl (u : Ast.punit) name =
  List.find_map
    (function
      | Ast.Dcl_type (ty, ds) ->
        List.find_map
          (fun (n, dims) -> if n = name then Some (ty, List.length dims) else None)
          ds
      | _ -> None)
    u.Ast.decls

let rec resolve_expr env (e : Ast.expr) : Ast.expr * ty =
  match e with
  | Ast.Int_const _ -> (e, Tint)
  | Ast.Real_const _ -> (e, Treal)
  | Ast.Logical_const _ -> (e, Tlogical)
  | Ast.Var v -> (
    if List.mem v env.loop_vars then (e, Tint)
    else
      match Symtab.find env.symtab v with
      | Some (Symtab.Scalar ty) -> (e, dtype_ty ty)
      | Some (Symtab.Param _) -> (e, Tint)
      | Some (Symtab.Array _) ->
        err env "whole-array reference %s not allowed here" v;
        (e, Treal)
      | Some (Symtab.Decomposition _) ->
        err env "decomposition %s used as a value" v;
        (e, Tint)
      | None ->
        (* implicit typing: integer i-n, real otherwise (Fortran default) *)
        if String.length v > 0 && v.[0] >= 'i' && v.[0] <= 'n' then (e, Tint)
        else (e, Treal))
  | Ast.Ref (name, args) | Ast.Funcall (name, args) -> (
    match Symtab.find env.symtab name with
    | Some (Symtab.Array { elt; dims }) ->
      if List.length args <> List.length dims then
        err env "array %s has rank %d, referenced with %d subscripts" name
          (List.length dims) (List.length args);
      let args =
        List.map
          (fun a ->
            let a', ty = resolve_expr env a in
            if ty <> Tint then err env "subscript of %s must be integer" name;
            a')
          args
      in
      (Ast.Ref (name, args), dtype_ty elt)
    | Some _ ->
      err env "%s is not an array or intrinsic" name;
      (e, Treal)
    | None ->
      if is_intrinsic name then resolve_intrinsic env name args
      else begin
        err env "unknown array or intrinsic %s" name;
        (e, Treal)
      end)
  | Ast.Bin (op, a, b) -> (
    let a', ta = resolve_expr env a in
    let b', tb = resolve_expr env b in
    match op with
    | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Pow ->
      if ta = Tlogical || tb = Tlogical then
        err env "arithmetic on logical operands";
      (Ast.Bin (op, a', b'), if ta = Treal || tb = Treal then Treal else Tint)
    | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
      if ta = Tlogical || tb = Tlogical then
        err env "comparison of logical operands";
      (Ast.Bin (op, a', b'), Tlogical)
    | Ast.And | Ast.Or ->
      if ta <> Tlogical || tb <> Tlogical then
        err env "logical operator on %s/%s operands" (ty_name ta) (ty_name tb);
      (Ast.Bin (op, a', b'), Tlogical))
  | Ast.Un (Ast.Neg, a) ->
    let a', ta = resolve_expr env a in
    if ta = Tlogical then err env "negation of logical operand";
    (Ast.Un (Ast.Neg, a'), ta)
  | Ast.Un (Ast.Not, a) ->
    let a', ta = resolve_expr env a in
    if ta <> Tlogical then err env ".not. on %s operand" (ty_name ta);
    (Ast.Un (Ast.Not, a'), Tlogical)

and resolve_intrinsic env name args =
  let args_typed = List.map (resolve_expr env) args in
  let args' = List.map fst args_typed in
  let tys = List.map snd args_typed in
  let arity n =
    if List.length args <> n then
      err env "intrinsic %s expects %d argument(s)" name n
  in
  let hd_ty = function t :: _ -> t | [] -> Treal in
  let result_ty =
    match name with
    | "abs" ->
      arity 1;
      hd_ty tys
    | "sqrt" ->
      arity 1;
      Treal
    | "mod" ->
      arity 2;
      if tys <> [] && List.for_all (fun t -> t = Tint) tys then Tint else Treal
    | "max" | "min" ->
      if List.length args < 2 then
        err env "intrinsic %s expects >= 2 arguments" name;
      if List.exists (fun t -> t = Treal) tys then Treal else Tint
    | "float" ->
      arity 1;
      Treal
    | "int" ->
      arity 1;
      Tint
    | "sign" ->
      arity 2;
      hd_ty tys
    | _ ->
      err env "unknown intrinsic %s" name;
      Treal
  in
  if List.exists (fun t -> t = Tlogical) tys then
    err env "intrinsic %s applied to logical argument" name;
  (Ast.Funcall (name, args'), result_ty)

(* --- Statement resolution -------------------------------------------- *)

let rec resolve_stmt all_units env (s : Ast.stmt) : Ast.stmt =
  let loc = s.loc in
  let env = { env with loc } in
  let kind =
    match s.kind with
    | Ast.Assign (lhs, rhs) -> (
      let rhs', rty = resolve_expr env rhs in
      match lhs with
      | Ast.Var v -> (
        if List.mem v env.loop_vars then
          err env "cannot assign to active loop index %s" v;
        match Symtab.find env.symtab v with
        | Some (Symtab.Scalar ty) ->
          let lty = dtype_ty ty in
          if (lty = Tlogical) <> (rty = Tlogical) then
            err env "type mismatch assigning %s to %s" (ty_name rty) v;
          Ast.Assign (lhs, rhs')
        | Some (Symtab.Param _) ->
          err env "cannot assign to parameter %s" v;
          Ast.Assign (lhs, rhs')
        | Some (Symtab.Array _) ->
          err env "cannot assign to whole array %s" v;
          Ast.Assign (lhs, rhs')
        | Some (Symtab.Decomposition _) ->
          err env "cannot assign to decomposition %s" v;
          Ast.Assign (lhs, rhs')
        | None ->
          (* implicitly typed scalar *)
          Ast.Assign (lhs, rhs'))
      | Ast.Ref _ | Ast.Funcall _ -> (
        let lhs', lty = resolve_expr env lhs in
        match lhs' with
        | Ast.Ref _ ->
          if (lty = Tlogical) <> (rty = Tlogical) then
            err env "type mismatch in array assignment";
          Ast.Assign (lhs', rhs')
        | _ ->
          err env "left-hand side must be a variable or array element";
          Ast.Assign (lhs', rhs'))
      | _ ->
        err env "left-hand side must be a variable or array element";
        Ast.Assign (lhs, rhs'))
    | Ast.Do d ->
      let lo', tlo = resolve_expr env d.lo in
      let hi', thi = resolve_expr env d.hi in
      let step' =
        Option.map
          (fun e ->
            let e', t = resolve_expr env e in
            if t <> Tint then err env "DO step must be integer";
            e')
          d.step
      in
      if tlo <> Tint || thi <> Tint then err env "DO bounds must be integer";
      (match Symtab.find env.symtab d.var with
      | None | Some (Symtab.Scalar Ast.Integer) -> ()
      | Some _ -> err env "DO index %s must be an integer scalar" d.var);
      if List.mem d.var env.loop_vars then
        err env "loop index %s reused in nested loop" d.var;
      let saved = env.loop_vars in
      env.loop_vars <- d.var :: saved;
      let body = List.map (resolve_stmt all_units env) d.body in
      env.loop_vars <- saved;
      Ast.Do { d with lo = lo'; hi = hi'; step = step'; body }
    | Ast.If i ->
      let cond', tc = resolve_expr env i.cond in
      if tc <> Tlogical then err env "IF condition must be logical";
      Ast.If
        { cond = cond';
          then_ = List.map (resolve_stmt all_units env) i.then_;
          else_ = List.map (resolve_stmt all_units env) i.else_ }
    | Ast.Call (name, args) -> (
      match List.find_opt (fun u -> String.equal u.Ast.uname name) all_units with
      | None ->
        err env "call to unknown subroutine %s" name;
        Ast.Call (name, List.map (fun a -> fst (resolve_expr env a)) args)
      | Some callee ->
        if callee.Ast.ukind <> Ast.Subroutine then
          err env "%s is not a subroutine" name;
        if List.length args <> List.length callee.Ast.formals then
          err env "subroutine %s expects %d arguments, got %d" name
            (List.length callee.Ast.formals) (List.length args)
        else
          (* a whole array passes by reference: the callee reads it with
             the formal's rank and element type.  An undeclared formal is
             reported when the callee is checked. *)
          List.iter2
            (fun a f ->
              let actual =
                match a with
                | Ast.Var v -> Option.map (fun i -> (v, i)) (Symtab.array_info env.symtab v)
                | _ -> None
              in
              match (actual, formal_decl callee f) with
              | _, None -> ()
              | None, Some (_, rank) ->
                if rank > 0 then
                  err env "scalar argument passed to rank-%d array formal %s of %s" rank
                    f name
              | Some (v, { elt; dims }), Some (fty, rank) ->
                if List.length dims <> rank then
                  err env "rank-%d array %s passed to %s formal %s of %s"
                    (List.length dims) v
                    (if rank = 0 then "scalar" else Fmt.str "rank-%d array" rank)
                    f name
                else if elt <> fty then
                  err env "%s array %s passed to %s array formal %s of %s"
                    (Ast_printer.dtype_name elt) v (Ast_printer.dtype_name fty) f name)
            args callee.Ast.formals;
        let args' =
          List.map
            (fun a ->
              match a with
              | Ast.Var v when Symtab.is_array env.symtab v -> a (* whole array *)
              | _ -> fst (resolve_expr env a))
            args
        in
        Ast.Call (name, args'))
    | Ast.Align { array; target; subs } ->
      if not (Symtab.is_array env.symtab array) then
        err env "ALIGN of non-array %s" array;
      if
        not
          (Symtab.is_decomposition env.symtab target
          || Symtab.is_array env.symtab target)
      then err env "ALIGN target %s is not a decomposition or array" target
      else if List.length subs <> Symtab.rank env.symtab target then
        err env "ALIGN target %s has rank %d" target
          (Symtab.rank env.symtab target);
      s.kind
    | Ast.Distribute { decomp; dists } ->
      if not (Symtab.is_decomposition env.symtab decomp || Symtab.is_array env.symtab decomp)
      then err env "DISTRIBUTE of unknown decomposition or array %s" decomp
      else if List.length dists <> Symtab.rank env.symtab decomp then
        err env "DISTRIBUTE %s has rank %d" decomp
          (Symtab.rank env.symtab decomp);
      s.kind
    | Ast.Return -> s.kind
    | Ast.Print args -> Ast.Print (List.map (fun a -> fst (resolve_expr env a)) args)
  in
  { s with kind }

(* --- Dangling loop indices ------------------------------------------- *)

(* After a DO loop the index variable holds its exit value; under SPMD
   partitioning each processor's localized loop exits at its own local
   bound, so that value is processor-dependent.  Reading a loop index
   after its loop (before reassigning it) is therefore forbidden: the
   sequential reference and the node programs would legitimately
   disagree.  The walk is structural (the language has no GOTO): the set
   of dangling indices flows along each statement list, grown at every
   loop exit and cleared by assignment.  Loop bodies get one silent
   pre-pass so indices left dangling by a previous iteration (an inner
   loop's exit value read at the top of the next outer iteration) are
   caught too. *)

module Sset = Set.Make (String)

let rec expr_reads acc (e : Ast.expr) =
  match e with
  | Ast.Var v -> Sset.add v acc
  | Ast.Int_const _ | Ast.Real_const _ | Ast.Logical_const _ -> acc
  | Ast.Ref (_, args) | Ast.Funcall (_, args) ->
    List.fold_left expr_reads acc args
  | Ast.Bin (_, a, b) -> expr_reads (expr_reads acc a) b
  | Ast.Un (_, a) -> expr_reads acc a

let check_dangling sink (body : Ast.stmt list) =
  let reported = ref Sset.empty in
  (* one diagnostic per index: the first bad read is the actionable one *)
  let use ~report loc dangling e =
    if report then
      Sset.iter
        (fun v ->
          if not (Sset.mem v !reported) then begin
            reported := Sset.add v !reported;
            Diag.error_to sink ~loc
              "loop index %s is processor-dependent after its loop ends; \
               assign it before reading it"
              v
          end)
        (Sset.inter (expr_reads Sset.empty e) dangling)
  in
  let rec walk ~report dangling stmts =
    List.fold_left (stmt ~report) dangling stmts
  and stmt ~report dangling (s : Ast.stmt) =
    match s.Ast.kind with
    | Ast.Assign (lhs, rhs) ->
      (match lhs with
      | Ast.Ref (_, subs) -> List.iter (use ~report s.Ast.loc dangling) subs
      | _ -> ());
      use ~report s.Ast.loc dangling rhs;
      (match lhs with
      | Ast.Var v -> Sset.remove v dangling
      | _ -> dangling)
    | Ast.Do d ->
      use ~report s.Ast.loc dangling d.Ast.lo;
      use ~report s.Ast.loc dangling d.Ast.hi;
      Option.iter (use ~report s.Ast.loc dangling) d.Ast.step;
      let inside = Sset.remove d.Ast.var dangling in
      let carried = walk ~report:false inside d.Ast.body in
      let out =
        walk ~report
          (Sset.remove d.Ast.var (Sset.union inside carried))
          d.Ast.body
      in
      Sset.add d.Ast.var out
    | Ast.If i ->
      use ~report s.Ast.loc dangling i.Ast.cond;
      let t = walk ~report dangling i.Ast.then_ in
      let e = walk ~report dangling i.Ast.else_ in
      Sset.union t e
    | Ast.Call (_, args) ->
      List.iter (use ~report s.Ast.loc dangling) args;
      (* scalar actuals are passed by reference: the callee may redefine
         them, so a call also clears *)
      List.fold_left
        (fun acc a ->
          match a with Ast.Var v -> Sset.remove v acc | _ -> acc)
        dangling args
    | Ast.Print args ->
      List.iter (use ~report s.Ast.loc dangling) args;
      dangling
    | Ast.Align _ | Ast.Distribute _ | Ast.Return -> dangling
  in
  ignore (walk ~report:true Sset.empty body)

let check_unit sink all_units (u : Ast.punit) : checked_unit =
  let symtab = build_symtab sink u in
  (* every formal must be declared *)
  List.iter
    (fun f ->
      match Symtab.find symtab f with
      | Some (Symtab.Scalar _ | Symtab.Array _) -> ()
      | Some _ ->
        Diag.error_to sink ~loc:u.uloc "formal %s of %s has a bad declaration" f
          u.uname
      | None ->
        Diag.error_to sink ~loc:u.uloc "formal %s of %s is not declared" f u.uname)
    u.formals;
  let env = { symtab; loop_vars = []; loc = u.uloc; sink } in
  check_dangling sink u.body;
  let body = List.map (resolve_stmt all_units env) u.body in
  { unit_ = { u with body }; symtab }

let check_all ?file sink (p : Ast.program) : checked_program =
  (* whole-program diagnostics still carry a location (the first unit,
     or line 1 of the input) so every rejection is attributable *)
  let ploc =
    match p with
    | u :: _ -> u.Ast.uloc
    | [] ->
      { Loc.file = Option.value ~default:"<input>" file; line = 1; col = 1 }
  in
  let names = List.map (fun u -> u.Ast.uname) p in
  let dup = Listx.dedup ~equal:String.equal names in
  if List.length dup <> List.length names then
    Diag.error_to sink ~loc:ploc "duplicate program unit names";
  let mains = List.filter (fun u -> u.Ast.ukind = Ast.Main) p in
  let main =
    match mains with
    | [ m ] -> m.Ast.uname
    | [] ->
      Diag.error_to sink ~loc:ploc "program has no main unit";
      (match p with u :: _ -> u.Ast.uname | [] -> "")
    | m :: _ ->
      Diag.error_to sink ~loc:m.Ast.uloc "program has multiple main units";
      m.Ast.uname
  in
  let units = List.map (check_unit sink p) p in
  (* COMMON blocks must be declared identically in every unit: identical
     member names, types and shapes.  This strict layout rule is what
     makes storage trivially shareable by name (see docs/LANGUAGE.md). *)
  let block_signature (cu : checked_unit) block =
    List.filter_map
      (fun (name, b) ->
        if String.equal b block then
          Some
            (match Symtab.find_exn cu.symtab name with
            | Symtab.Scalar ty -> Fmt.str "%s:%s" name (Ast_printer.dtype_name ty)
            | Symtab.Array { elt; dims } ->
              Fmt.str "%s:%s(%s)" name (Ast_printer.dtype_name elt)
                (String.concat ","
                   (List.map (fun (a, b) -> Fmt.str "%d..%d" a b) dims))
            | _ ->
              Diag.internal ~pass:"sema"
                "COMMON member %s of /%s/ is neither scalar nor array" name block)
        else None)
      (Symtab.commons cu.symtab)
    |> String.concat ";"
  in
  let all_blocks =
    List.concat_map (fun (cu : checked_unit) -> List.map snd (Symtab.commons cu.symtab)) units
    |> List.sort_uniq compare
  in
  List.iter
    (fun block ->
      let sigs =
        List.filter_map
          (fun (cu : checked_unit) ->
            match block_signature cu block with
            | "" -> None
            | s -> Some (cu.unit_.Ast.uname, s))
          units
      in
      match sigs with
      | [] -> ()
      | (u0, s0) :: rest ->
        List.iter
          (fun (u1, s1) ->
            if not (String.equal s0 s1) then
              Diag.error_to sink ~loc:ploc
                "COMMON /%s/ is declared differently in %s and %s (members must match exactly)"
                block u0 u1)
          rest;
        (* every unit that uses the block must declare it; and since the
           compiler propagates decompositions through declared commons
           only, require all units to declare it *)
        if List.length sigs <> List.length units then
          Diag.error_to sink ~loc:ploc
            "COMMON /%s/ must be declared in every program unit (declared in %d of %d)"
            block (List.length sigs) (List.length units))
    all_blocks;
  { units; main }

let check ?file ?sink (p : Ast.program) : checked_program =
  match sink with
  | Some sink -> check_all ?file sink p
  | None ->
    let sink = Diag.sink () in
    let cp = check_all ?file sink p in
    Diag.raise_if_errors sink;
    cp

let check_source ?file ?sink src =
  match sink with
  | Some sink -> check ?file ~sink (Parser.parse ?file ~sink src)
  | None ->
    (* Accumulate parse and sema diagnostics into one batch so a single
       invocation reports every frontend error. *)
    let sink = Diag.sink () in
    let p = Parser.parse ?file ~sink src in
    let cp = check ?file ~sink p in
    Diag.raise_if_errors sink;
    cp
