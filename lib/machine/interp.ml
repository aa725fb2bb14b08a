(* Interpreter for SPMD node programs.  A node program is compiled once
   per run through the shared resolved evaluator {!Eval}; each logical
   processor runs that code over its own frames, storage and counters,
   performing {!Eff} effects for time, messages, collectives and output;
   the {!Scheduler} coordinates the processor ensemble. *)

open Fd_support
open Fd_frontend

type binding = Eval.binding = Bscalar of Value.t ref | Barray of Storage.array_obj

type frame = (string, binding) Hashtbl.t

type code = { globals : Frame.t; main : Eval.unit_code option; main_name : string }

type t = { env : Eval.env; code : code }

let create ~proc ~config ~stats code =
  (* Reading a non-owned element that was never received aborts, so
     missing communication shows even when stale values agree. *)
  { env = Eval.env ~proc ~nprocs:config.Config.nprocs ~strict:true ~config ~stats; code }

let flush_ticks (env : Eval.env) =
  let c = env.Eval.clock in
  if c.Eval.pending > 0.0 then begin
    Eff.tick c.Eval.pending;
    c.Eval.pending <- 0.0
  end

(* --- Node-only intrinsics ------------------------------------------------ *)

let intrinsic sc name args : Eval.typed option =
  match (name, args) with
  | "myproc", [] -> Some (Eval.Int (fun env -> env.Eval.proc))
  | "nprocs", [] -> Some (Eval.Int (fun env -> env.Eval.nprocs))
  | "tab$", sel :: consts ->
    (* compile-time table select: tab$(i, c0, c1, ...) = c_i *)
    let sel = Eval.int_expr sc sel and consts = Array.of_list (List.map (Eval.expr sc) consts) in
    Some
      (Eval.Boxed
         (fun env ->
           let i = sel env in
           if i < 0 || i >= Array.length consts then Storage.runtime_error "tab$ index %d out of range" i
           else consts.(i) env))
  | "owner$", Ast.Var arr :: subs ->
    (* run-time resolution: owner of an element under the array's current
       layout; replicated arrays are owned locally.  Only the distributed
       dimension's subscript is evaluated, bounds-checked as a read is,
       and its owner is [Layout.owner_of]'s arithmetic, inline. *)
    let obj = Eval.array_obj sc arr and subs = Array.of_list (List.map (Eval.int_expr sc) subs) in
    Some
      (Eval.Int
         (fun env ->
           let o = obj env in
           let layout = o.Storage.layout in
           match layout.Layout.dist_dim with
           | None -> env.Eval.proc
           | Some d ->
             if d >= Array.length subs then Storage.rank_error o (Array.length subs);
             let x = subs.(d) env in
             let lo, hi = o.Storage.bounds.(d) in
             if x < lo || x > hi then Storage.check_subscript o d x;
             let nprocs = env.Eval.nprocs in
             (match layout.Layout.dist with
             | Layout.Block b -> let q = (x - lo) / b in if q < nprocs then q else nprocs - 1
             | Layout.Cyclic -> (x - lo) mod nprocs
             | Layout.Block_cyclic b -> (x - lo) / b mod nprocs
             | Layout.Replicated -> 0)))
  | _ -> None

(* --- Sections ------------------------------------------------------------- *)

let section sc (section : Node.section) : Eval.env -> Triplet.t list =
  let int = Eval.int_expr sc in
  let dims = List.map (fun (lo, hi, step) -> (int lo, int hi, int step)) section in
  fun env ->
    List.map
      (fun (lo, hi, step) ->
        let l = lo env in
        let h = hi env in
        let s = step env in
        if s < 1 then Storage.runtime_error "section step must be positive";
        Triplet.make ~lo:l ~hi:h ~step:s)
      dims

(* Every element of a section in row-major order, one mem-op each. *)
let read_section (env : Eval.env) obj triplets : (int array * Value.t) list =
  let dims = Array.of_list triplets in
  let idx = Array.make (Array.length dims) 0 and out = ref [] in
  let rec walk d =
    if d = Array.length dims then begin
      let idx = Array.copy idx in
      Eval.mem env;
      out := (idx, Storage.read ~strict:env.Eval.strict obj idx) :: !out
    end
    else
      let t = dims.(d) in
      let x = ref (Triplet.lo t) in
      while !x <= Triplet.hi t do
        idx.(d) <- !x;
        walk (d + 1);
        x := !x + Triplet.step t
      done
  in
  if not (Array.exists Triplet.is_empty dims) then walk 0;
  List.rev !out

(* --- Statements ----------------------------------------------------------- *)

let cond_mentions_myp cond =
  let found = ref false in
  Ast.iter_exprs_expr (function Ast.Var "my$p" -> found := true | _ -> ()) cond;
  !found

(* A message peer outside 0..P-1 is a located run-time error. *)
let peer sc what (loc : Loc.t) e : Eval.env -> int =
  let e = Eval.int_expr sc e in
  fun env ->
    let p = e env in
    if p < 0 || p >= env.Eval.nprocs then
      Storage.runtime_error "%a: p%d %s processor %d, outside 0..%d" Loc.pp loc env.Eval.proc
        what p (env.Eval.nprocs - 1);
    p

let rec stmt sc (s : Node.nstmt) : Eval.env -> unit =
  match s with
  | Node.N_assign (lhs, rhs) -> Eval.assign sc lhs rhs
  | Node.N_do { var; lo; hi; step; body } -> Eval.do_loop sc ~var ~lo ~hi ~step (block sc body)
  | Node.N_if { cond; then_; else_; _ } ->
    (* An owner guard is an [if] on the processor id ("my$p") with no
       else branch; a false guard is the visible footprint of the
       owner-computes rule, so it earns a trace event. *)
    let guard = else_ = [] && cond_mentions_myp cond in
    let cond = Eval.bool_expr sc cond and then_ = block sc then_ and else_ = block sc else_ in
    fun env ->
      if cond env then then_ env
      else begin
        (match env.Eval.config.Config.trace with
        | Some tr when guard ->
          let at = env.Eval.stats.Stats.clocks.(env.Eval.proc) +. env.Eval.clock.Eval.pending in
          Fd_trace.Trace.emit tr ~kind:Fd_trace.Trace.Guard_skip ~at ~proc:env.Eval.proc ()
        | _ -> ());
        else_ env
      end
  | Node.N_call (name, args) -> Eval.call sc name args
  | Node.N_send { dest; parts; tag; loc } ->
    let dest = peer sc "sends to" loc dest in
    let parts = List.map (fun (a, sec) -> (a, Eval.array_obj sc a, section sc sec)) parts in
    fun env ->
      let d = dest env in
      let part (array, obj, sec) =
        let obj = obj env in
        let triplets = sec env in
        (array, read_section env obj triplets)
      in
      let parts = List.map part parts in
      let elems = List.fold_left (fun k (_, es) -> k + List.length es) 0 parts in
      let bytes = elems * env.Eval.config.Config.word_bytes in
      flush_ticks env;
      (* seq 0 is a placeholder: the scheduler's network layer stamps the
         real per-(src, dest, tag) sequence number *)
      Eff.send { Message.src = env.Eval.proc; dest = d; tag; seq = 0; parts; bytes }
  | Node.N_recv { src; tag; loc } ->
    let src = peer sc "receives from" loc src in
    fun env ->
      let s = src env in
      flush_ticks env;
      let msg = Eff.recv ~src:s ~tag ~loc in
      (* elements arrive by array name, looked up once per part *)
      List.iter
        (fun (array, elems) ->
          match elems with
          | [] -> ()
          | (idx, v) :: rest ->
            Eval.mem env;
            let obj = Eval.lookup_array sc env array in
            Storage.receive obj idx v;
            List.iter (fun (idx, v) -> Eval.mem env; Storage.receive obj idx v) rest)
        msg.Message.parts
  | Node.N_bcast { root; payload = Node.P_section (array, sec); site; loc } ->
    let root = Eval.int_expr sc root and obj = Eval.array_obj sc array and sec = section sc sec in
    fun env ->
      let r = root env in
      flush_ticks env;
      let obj = obj env in
      let triplets = sec env in
      let read () = read_section env obj triplets in
      let write elems = List.iter (fun (idx, v) -> Storage.receive obj idx v) elems in
      Eff.collective ~site ~loc (Eff.Coll_bcast { root = r; label = array; read; write })
  | Node.N_bcast { root; payload = Node.P_scalar name; site; loc } ->
    let root = Eval.int_expr sc root and cell = Eval.scalar_cell sc name in
    fun env ->
      let r = root env in
      flush_ticks env;
      let cell = cell env in
      let read () = [ ([||], !cell) ] in
      let write = function
        | [ (_, v) ] -> Eval.store cell v
        | _ -> Diag.error "scalar broadcast payload mismatch"
      in
      Eff.collective ~site ~loc (Eff.Coll_bcast { root = r; label = name; read; write })
  | Node.N_remap { array; new_layout; move; site; loc } ->
    let obj = Eval.array_obj sc array in
    fun env ->
      let obj = obj env in
      flush_ticks env;
      Eff.collective ~site ~loc (Eff.Coll_remap { obj; new_layout; move })
  | Node.N_print args ->
    let args = List.map (Eval.expr sc) args in
    fun env ->
      let line = String.concat " " (List.map (fun a -> Value.to_string (a env)) args) in
      flush_ticks env;
      Eff.output line
  | Node.N_return -> fun _ -> raise Eval.Return_signal

and block sc body = Eval.block (List.map (stmt sc) body)

let units_of (prog : Node.program) =
  let globals =
    Frame.common ~arrays:prog.Node.n_common_arrays ~scalars:prog.Node.n_common_scalars
  in
  let units = Hashtbl.create 8 in
  let procs =
    List.map
      (fun (np : Node.nproc) ->
        let u =
          Eval.unit_code ~formals:np.Node.np_formals ~arrays:np.Node.np_arrays
            ~scalars:np.Node.np_scalars ~is_common:(fun n -> Frame.find globals n <> None)
        in
        if not (Hashtbl.mem units np.Node.np_name) then Hashtbl.replace units np.Node.np_name u;
        (np, u))
      prog.Node.n_procs
  in
  let scopes =
    List.map
      (fun ((np : Node.nproc), (u : Eval.unit_code)) ->
        let sc = { Eval.unit = u; globals; units; params = (fun _ -> None); hook = intrinsic } in
        Eval.define u (block sc np.Node.np_body);
        (np, sc))
      procs
  in
  (globals, units, scopes)

let compile (prog : Node.program) : code =
  let globals, units, _ = units_of prog in
  { globals; main = Hashtbl.find_opt units prog.Node.n_main; main_name = prog.Node.n_main }

let frames prog =
  let _, _, scopes = units_of prog in
  List.map (fun ((np : Node.nproc), sc) -> (np.Node.np_name, Eval.names sc, Eval.slot_kind sc)) scopes

(* Run this processor's copy of the main node program; returns the main
   frame so the driver can gather final array contents. *)
let run_main t : frame =
  match t.code.main with
  | None ->
    (* codegen guarantees a main node procedure; its absence is a
       compiler bug, not an input error *)
    Diag.internal ~pass:"simulate" "node program has no main %s" t.code.main_name
  | Some main ->
    let frame = Eval.run_main t.env ~globals:t.code.globals main in
    flush_ticks t.env;
    frame
