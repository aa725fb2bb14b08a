(* The simulated network: FIFO delivery per (src, dest, tag) channel,
   the sequence numbers the trace shows, which parked receiver an
   arrival wakes, and the interpreter's inline owner$ against
   Layout.owner_of.  Failure diagnostics are in test_faults.ml. *)

open Fd_frontend
open Fd_machine

let check_int = Alcotest.(check int)
let check_ints = Alcotest.(check (list int))

let int_e n = Ast.Int_const n
let nloc = Fd_support.Loc.none
let myp = Ast.Var "my$p"

let node_prog ?(nprocs = 2) ?(scalars = []) ~arrays body =
  { Node.n_main = "m"; n_nprocs = nprocs;
    n_common_arrays = []; n_common_scalars = [];
    n_procs =
      [ { Node.np_name = "m"; np_formals = []; np_arrays = arrays;
          np_scalars = scalars;
          np_body = Node.N_assign (myp, Ast.Funcall ("myproc", [])) :: body } ] }

let run_with ?trace prog nprocs = Scheduler.run (Config.make ~nprocs ?trace ()) prog

let on p then_ =
  Node.N_if { cond = Ast.Bin (Ast.Eq, myp, int_e p); then_; else_ = []; loc = nloc }

(* --- FIFO channels ------------------------------------------------------ *)

(* p0 parks on a receive from p2, so p1 parks first on (p0, tag 2).  p2
   then sends p1 a tag-2 message and releases p0, which sends x(1) three
   times on tag 1 and once on tag 2, changing x(1) before each send.  p1
   receives tag 2 first, then the three tag-1 messages, then p2's.  Only
   p0's tag-2 send may wake p1, and each channel delivers in send order. *)
let fifo_channels () =
  let rep n = Layout.replicated [ (1, n) ] in
  let arrays =
    [ { Node.ad_name = "x"; ad_elt = Ast.Real; ad_layout = rep 2 };
      { Node.ad_name = "y"; ad_elt = Ast.Real; ad_layout = rep 5 } ]
  in
  let x i = Ast.Ref ("x", [ int_e i ]) in
  let set_x v = Node.N_assign (x 1, Ast.Real_const v) in
  let send dest i tag =
    Node.N_send
      { dest = int_e dest; parts = [ ("x", [ (int_e i, int_e i, int_e 1) ]) ]; tag; loc = nloc }
  in
  let recv src tag = Node.N_recv { src = int_e src; tag; loc = nloc } in
  let keep j i = Node.N_assign (Ast.Ref ("y", [ int_e j ]), x i) in
  let body =
    [ on 0
        [ recv 2 9; set_x 1.0; send 1 1 1; set_x 2.0; send 1 1 1; set_x 3.0; send 1 1 1;
          set_x 4.0; send 1 1 2 ];
      on 1 [ recv 0 2; keep 1 1; recv 0 1; keep 2 1; recv 0 1; keep 3 1; recv 0 1; keep 4 1;
             recv 2 2; keep 5 2 ];
      on 2 [ Node.N_assign (x 2, Ast.Real_const 7.0); send 1 2 2; send 0 2 9 ] ]
  in
  let module Tr = Fd_trace.Trace in
  let tr = Tr.create () in
  let stats, frames = run_with ~trace:tr (node_prog ~nprocs:3 ~arrays body) 3 in
  check_int "messages" 6 stats.Stats.messages;
  (match Hashtbl.find frames.(1) "y" with
  | Interp.Barray obj ->
    Alcotest.(check (list (float 0.0)))
      "p1 received tag 2, then tag 1 in send order, then p2's message"
      [ 4.0; 1.0; 2.0; 3.0; 7.0 ]
      (List.init 5 (fun i -> Value.to_float (Storage.read ~strict:true obj [| i + 1 |])))
  | _ -> Alcotest.fail "y missing");
  let evs kind p =
    List.filter (fun e -> e.Tr.kind = kind && e.Tr.proc = p) (Tr.to_list tr)
  in
  let sends = evs Tr.Send 0 in
  check_ints "p0's send tags" [ 1; 1; 1; 2 ] (List.map (fun e -> e.Tr.tag) sends);
  check_ints "p0's send seqs" [ 0; 1; 2; 0 ] (List.map (fun e -> e.Tr.seq) sends);
  check_ints "p2's send seqs" [ 0; 0 ] (List.map (fun e -> e.Tr.seq) (evs Tr.Send 2));
  let recvs = evs Tr.Recv 1 in
  check_ints "p1's receive sources" [ 0; 0; 0; 0; 2 ] (List.map (fun e -> e.Tr.peer) recvs);
  check_ints "p1's receive tags" [ 2; 1; 1; 1; 2 ] (List.map (fun e -> e.Tr.tag) recvs);
  check_ints "p1's receive seqs" [ 0; 0; 1; 2; 0 ] (List.map (fun e -> e.Tr.seq) recvs);
  let blocks = evs Tr.Block 1 in
  check_ints "p1 parks once, on p0" [ 0 ] (List.map (fun e -> e.Tr.peer) blocks);
  check_ints "on tag 2" [ 2 ] (List.map (fun e -> e.Tr.tag) blocks);
  let wakes = evs Tr.Wake 1 in
  check_ints "p1 wakes once, by p0" [ 0 ] (List.map (fun e -> e.Tr.peer) wakes);
  check_ints "on tag 2, seq 0" [ 2; 0 ]
    (List.concat_map (fun e -> [ e.Tr.tag; e.Tr.seq ]) wakes);
  check_ints "p0 wakes once, by p2" [ 2 ] (List.map (fun e -> e.Tr.peer) (evs Tr.Wake 0))

(* --- owner$ ------------------------------------------------------------- *)

(* A layout of rank 1 or 2 whose distributed dimension is drawn from
   every distribution, block sizes from 1 to past the extent (so P
   blocks may fall short of it and owner_of clamps), with P processors. *)
let layout_gen =
  let open QCheck2.Gen in
  let* nprocs = int_range 1 9 and* lo = int_range (-3) 3 and* ext = int_range 1 40 in
  let* other = int_range 1 3 and* rank2 = bool and* d = int_range 0 1 in
  let* dist =
    oneof
      [ map (fun b -> Layout.Block b) (int_range 1 (ext + 2));
        pure Layout.Cyclic;
        map (fun b -> Layout.Block_cyclic b) (int_range 1 (ext + 2));
        pure Layout.Replicated ]
  in
  let bounds = if rank2 then [ (lo, lo + ext - 1); (1, other) ] else [ (lo, lo + ext - 1) ] in
  let d = if rank2 then d else 0 in
  let bounds = if d = 1 then List.rev bounds else bounds in
  pure (nprocs, { Layout.bounds; dist_dim = Some d; dist })

let print_layout (nprocs, l) = Fmt.str "P=%d %a %s" nprocs Layout.pp l
    (String.concat "," (List.map (fun (lo, hi) -> Fmt.str "%d:%d" lo hi) l.Layout.bounds))

(* Every processor stores owner$(a, ..., g, ...) into o(g) for each g
   of the distributed dimension; p0's o must be owner_of's. *)
let owner_matches_layout (nprocs, (l : Layout.t)) =
  let d = Option.get l.Layout.dist_dim in
  let lo, hi = List.nth l.Layout.bounds d in
  let arrays =
    [ { Node.ad_name = "a"; ad_elt = Ast.Real; ad_layout = l };
      { Node.ad_name = "o"; ad_elt = Ast.Integer; ad_layout = Layout.replicated [ (lo, hi) ] } ]
  in
  let subs =
    List.mapi (fun k (blo, _) -> if k = d then Ast.Var "g" else int_e blo) l.Layout.bounds
  in
  let body =
    [ Node.N_do
        { var = "g"; lo = int_e lo; hi = int_e hi; step = None;
          body =
            [ Node.N_assign (Ast.Ref ("o", [ Ast.Var "g" ]),
                             Ast.Funcall ("owner$", Ast.Var "a" :: subs)) ] } ]
  in
  let _, frames =
    run_with (node_prog ~nprocs ~scalars:[ ("g", Ast.Integer) ] ~arrays body) nprocs
  in
  match Hashtbl.find frames.(0) "o" with
  | Interp.Barray o ->
    List.for_all
      (fun g ->
        Value.to_int (Storage.read ~strict:true o [| g |]) = Layout.owner_of l ~nprocs g)
      (List.init (hi - lo + 1) (fun i -> lo + i))
  | _ -> false

let suite =
  [
    Alcotest.test_case "FIFO channels, seq and wake-ups" `Quick fifo_channels;
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~name:"owner$ = Layout.owner_of" ~print:print_layout
         layout_gen owner_matches_layout);
  ]
