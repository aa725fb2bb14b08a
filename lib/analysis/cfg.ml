(* Statement-level control-flow graph for one procedure.

   Nodes are Entry, Exit, and one node per statement.  A DO statement's
   node is its loop header: header -> first body node, header -> follow
   (zero-trip), last body node -> header (back edge). *)

open Fd_frontend

type node = Entry | Exit | Stmt of Ast.stmt

type t = {
  nodes : node array;
  succs : int list array;
  preds : int list array;
  node_of_sid : (int, int) Hashtbl.t;
}

let entry = 0
let exit_ = 1

let node t i = t.nodes.(i)
let succs t i = t.succs.(i)
let preds t i = t.preds.(i)
let length t = Array.length t.nodes
let node_of_sid t sid = Hashtbl.find_opt t.node_of_sid sid

let build (body : Ast.stmt list) : t =
  let nodes = ref [ Exit; Entry ] in (* reversed; Entry=0, Exit=1 after rev *)
  let count = ref 2 in
  let edges = ref [] in
  let node_of_sid = Hashtbl.create 64 in
  let add_node n =
    let id = !count in
    nodes := n :: !nodes;
    incr count;
    (match n with Stmt s -> Hashtbl.replace node_of_sid s.Ast.sid id | _ -> ());
    id
  in
  let add_edge a b = edges := (a, b) :: !edges in
  (* [wire preds stmts] threads the statement list, returning the set of
     dangling exits (node ids whose successor is the follow point).
     [preds] are the dangling exits flowing into the head of [stmts]. *)
  let rec wire (preds : int list) (stmts : Ast.stmt list) : int list =
    match stmts with
    | [] -> preds
    | s :: rest ->
      let outs =
        match s.Ast.kind with
        | Ast.Assign _ | Ast.Call _ | Ast.Align _ | Ast.Distribute _ | Ast.Print _ ->
          let id = add_node (Stmt s) in
          List.iter (fun p -> add_edge p id) preds;
          [ id ]
        | Ast.Return ->
          let id = add_node (Stmt s) in
          List.iter (fun p -> add_edge p id) preds;
          add_edge id exit_;
          []
        | Ast.Do d ->
          let header = add_node (Stmt s) in
          List.iter (fun p -> add_edge p header) preds;
          let body_exits = wire [ header ] d.body in
          List.iter (fun e -> add_edge e header) body_exits;
          [ header ]
        | Ast.If i ->
          let cond = add_node (Stmt s) in
          List.iter (fun p -> add_edge p cond) preds;
          let then_exits = wire [ cond ] i.then_ in
          let else_exits = wire [ cond ] i.else_ in
          (* An empty branch contributes the cond node itself (returned by
             wire as its input preds). *)
          then_exits @ else_exits
      in
      wire outs rest
  in
  let final = wire [ entry ] body in
  List.iter (fun p -> add_edge p exit_) final;
  let n = !count in
  let nodes = Array.of_list (List.rev !nodes) in
  let succs = Array.make n [] and preds_a = Array.make n [] in
  List.iter
    (fun (a, b) ->
      if not (List.mem b succs.(a)) then succs.(a) <- b :: succs.(a);
      if not (List.mem a preds_a.(b)) then preds_a.(b) <- a :: preds_a.(b))
    !edges;
  { nodes; succs; preds = preds_a; node_of_sid }
