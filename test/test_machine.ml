(* Machine simulator tests: layouts, storage validity tracking, the
   effects-based scheduler (message ordering, broadcast, remap, deadlock
   detection), cost model, and the sequential reference interpreter. *)

open Fd_support
open Fd_frontend
open Fd_machine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let int_e n = Ast.Int_const n
let nloc = Fd_support.Loc.none

(* --- Layout ----------------------------------------------------------- *)

let l_block_owned () =
  let l = { Layout.bounds = [ (1, 100) ]; dist_dim = Some 0; dist = Layout.Block 25 } in
  let owned = Array.init 4 (Layout.owned_one l ~nprocs:4) in
  check "p0" true (Iset.equal owned.(0) (Iset.range 1 25));
  check "p3" true (Iset.equal owned.(3) (Iset.range 76 100));
  check_int "owner of 26" 1 (Layout.owner_of l ~nprocs:4 26);
  check_int "owner of 100" 3 (Layout.owner_of l ~nprocs:4 100)

let l_block_ragged () =
  (* N=10, P=4, b=3: blocks 3/3/3/1 *)
  let l = { Layout.bounds = [ (1, 10) ]; dist_dim = Some 0;
            dist = Layout.Block (Layout.block_size_for ~nprocs:4 (1, 10)) } in
  let owned = Array.init 4 (Layout.owned_one l ~nprocs:4) in
  check_int "p3 has one" 1 (Iset.count owned.(3));
  check_int "total covers" 10 (Array.fold_left (fun a s -> a + Iset.count s) 0 owned)

let l_cyclic_owned () =
  let l = { Layout.bounds = [ (1, 10) ]; dist_dim = Some 0; dist = Layout.Cyclic } in
  let owned = Array.init 3 (Layout.owned_one l ~nprocs:3) in
  check "p0 owns 1,4,7,10" true (Iset.equal owned.(0) (Iset.of_list [ 1; 4; 7; 10 ]));
  check_int "owner of 5" 1 (Layout.owner_of l ~nprocs:3 5)

let l_block_cyclic () =
  let l = { Layout.bounds = [ (1, 12) ]; dist_dim = Some 0; dist = Layout.Block_cyclic 2 } in
  let owned = Array.init 3 (Layout.owned_one l ~nprocs:3) in
  check "p0 owns {1,2,7,8}" true (Iset.equal owned.(0) (Iset.of_list [ 1; 2; 7; 8 ]));
  check_int "owner of 9" 1 (Layout.owner_of l ~nprocs:3 9)

let l_partition_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"layouts partition the extent"
       QCheck2.Gen.(
         let* n = int_range 1 60 in
         let* p = int_range 1 8 in
         let* kind = int_range 0 2 in
         return (n, p, kind))
       (fun (n, p, kind) ->
         let dist =
           match kind with
           | 0 -> Layout.Block (Layout.block_size_for ~nprocs:p (1, n))
           | 1 -> Layout.Cyclic
           | _ -> Layout.Block_cyclic 2
         in
         let l = { Layout.bounds = [ (1, n) ]; dist_dim = Some 0; dist } in
         let owned = Array.init p (Layout.owned_one l ~nprocs:p) in
         (* disjoint and covering, and owner_of agrees with owned *)
         let total = Array.fold_left (fun a s -> a + Iset.count s) 0 owned in
         total = n
         && List.for_all
              (fun x ->
                let o = Layout.owner_of l ~nprocs:p x in
                o >= 0 && o < p && Iset.mem x owned.(o))
              (List.init n (fun i -> i + 1))))

(* --- Storage ------------------------------------------------------------ *)

let st_validity () =
  let l = { Layout.bounds = [ (1, 10) ]; dist_dim = Some 0; dist = Layout.Block 3 } in
  let obj = Storage.alloc ~stats:(Stats.create 4) ~proc:1 ~nprocs:4 "x" Ast.Real l in
  (* p1 owns 4..6 *)
  check "owned readable" true
    (match Storage.read ~strict:true obj [| 5 |] with _ -> true);
  check "non-owned raises" true
    (match Storage.read ~strict:true obj [| 1 |] with
    | _ -> false
    | exception Storage.Invalid_read _ -> true);
  (* receive validates *)
  Storage.receive obj [| 1 |] (Value.Vreal 7.0);
  check "received readable" true
    (Value.to_float (Storage.read ~strict:true obj [| 1 |]) = 7.0)

let st_bounds_check () =
  let l = Layout.replicated [ (1, 4); (1, 4) ] in
  let obj = Storage.alloc ~stats:(Stats.create 1) ~proc:0 ~nprocs:1 "a" Ast.Integer l in
  check "oob raises" true
    (match Storage.read ~strict:false obj [| 5; 1 |] with
    | _ -> false
    | exception Storage.Runtime_error _ -> true)

let st_set_layout_resets () =
  let l1 = { Layout.bounds = [ (1, 8) ]; dist_dim = Some 0; dist = Layout.Block 2 } in
  let obj = Storage.alloc ~stats:(Stats.create 4) ~proc:0 ~nprocs:4 "x" Ast.Real l1 in
  Storage.receive obj [| 5 |] (Value.Vreal 1.0);
  let l2 = { Layout.bounds = [ (1, 8) ]; dist_dim = Some 0; dist = Layout.Cyclic } in
  Storage.set_layout obj l2;
  (* p0 now owns {1,5}: 5 valid again by ownership, old received 3 is not *)
  check "newly owned valid" true
    (match Storage.read ~strict:true obj [| 5 |] with _ -> true);
  check "stale receive invalidated" true
    (match Storage.read ~strict:true obj [| 3 |] with
    | _ -> false
    | exception Storage.Invalid_read _ -> true)

(* Paged storage against a dense reference: full arrays of values and
   validity flags, ownership probed with [Layout.owned_one], and a full
   validity reset on a layout change — the storage semantics before
   pages.  Two processors' copies of one array take random writes,
   receives, copies from each other, layout switches and reads; after
   every step both sides agree on what each read returns (or which
   [Invalid_read] it raises) and on [Storage.data] and [Storage.valid]. *)
type dense = {
  vals : Value.t array;
  ok : bool array;
  mutable lay : Layout.t;
  d_proc : int;
}

type st_op =
  | Write_flat of int * int * Value.t
  | Write_int of int * int * int
  | Write_float of int * int * float
  | Receive of int * int * Value.t
  | Copy of int * int * int  (* into copy k from the other, a flat range *)
  | Relayout of int * Layout.t
  | Read of int * bool * int  (* copy, strict, flat *)
  | Read_typed of int * bool * int

let dense_owns ~nprocs (o : Storage.array_obj) m flat =
  match m.lay.Layout.dist_dim with
  | None -> true
  | Some d ->
    let lo, hi = o.Storage.bounds.(d) in
    let g = lo + (flat / o.Storage.strides.(d) mod (hi - lo + 1)) in
    Iset.mem g (Layout.owned_one m.lay ~nprocs m.d_proc)

let dense_reset ~nprocs o m =
  Array.iteri (fun flat _ -> m.ok.(flat) <- dense_owns ~nprocs o m flat) m.ok

let store_as elt (v : Value.t) =
  match elt with
  | Ast.Real -> Value.Vreal (Value.to_float v)
  | Ast.Integer -> Value.Vint (Value.to_int v)
  | Ast.Logical -> Value.Vbool (Value.to_bool v)

let subscripts_of (o : Storage.array_obj) flat =
  Array.mapi (fun d (lo, hi) -> lo + (flat / o.Storage.strides.(d) mod (hi - lo + 1))) o.Storage.bounds

(* What a read returns: the value, or the index it reports invalid. *)
let dense_read ~strict (o : Storage.array_obj) m flat =
  if strict && not m.ok.(flat) then Error (subscripts_of o flat, m.d_proc) else Ok m.vals.(flat)

let paged_read ~typed ~strict (o : Storage.array_obj) flat =
  match
    if not typed then Storage.read_flat ~strict o flat
    else
      match o.Storage.elt with
      | Ast.Real -> Value.Vreal (Storage.read_float ~strict o flat)
      | Ast.Integer -> Value.Vint (Storage.read_int ~strict o flat)
      | Ast.Logical -> Storage.read_flat ~strict o flat
  with
  | v -> Ok v
  | exception Storage.Invalid_read { array = "a"; index; proc } -> Error (index, proc)

let dense_view elt (m : dense) : Storage.data =
  match elt with
  | Ast.Real -> Storage.Fdata (Array.map Value.to_float m.vals)
  | Ast.Integer -> Storage.Idata (Array.map Value.to_int m.vals)
  | Ast.Logical -> Storage.Bdata (Array.map Value.to_bool m.vals)

let storage_gen =
  QCheck2.Gen.(
    let* rank = int_range 1 3 in
    let* bounds =
      list_repeat rank
        (let* lo = int_range (-3) 3 in
         let* n = match rank with 1 -> int_range 1 200 | 2 -> int_range 1 24 | _ -> int_range 1 9 in
         return (lo, lo + n - 1))
    in
    let* nprocs = int_range 1 9 in
    let* procs = pair (int_range 0 (nprocs - 1)) (int_range 0 (nprocs - 1)) in
    let layout =
      let* d = int_range 0 (rank - 1) in
      let lo, hi = List.nth bounds d in
      let* dist =
        oneof
          [ map (fun b -> Layout.Block b)
              (int_range 1 (Layout.block_size_for ~nprocs (lo, hi) + 2));
            return Layout.Cyclic;
            map (fun b -> Layout.Block_cyclic b) (int_range 1 5);
            return Layout.Replicated ]
      in
      oneof
        [ return { Layout.bounds; dist_dim = Some d; dist };
          map (fun () -> Layout.replicated bounds) unit ]
    in
    let* l0 = layout in
    let* elt = oneofl [ Ast.Real; Ast.Integer; Ast.Logical ] in
    let size = List.fold_left (fun a (lo, hi) -> a * (hi - lo + 1)) 1 bounds in
    let value =
      match elt with
      | Ast.Real -> map (fun n -> Value.Vreal (float_of_int n /. 4.0)) (int_range (-99) 99)
      | Ast.Integer -> map (fun n -> Value.Vint n) (int_range (-99) 99)
      | Ast.Logical -> map (fun b -> Value.Vbool b) bool
    in
    let numeric = elt <> Ast.Logical in
    let op =
      let* k = int_range 0 1 in
      let* flat = int_range 0 (size - 1) in
      let* strict = bool in
      let* v = value in
      let* n = int_range (-99) 99 in
      let* l = layout in
      let* len = oneof [ return 1; int_range 0 (min 150 (size - flat)) ] in
      let* which = int_range 0 8 in
      return
        (match which with
        | 0 -> Write_flat (k, flat, v)
        | 1 when numeric -> Write_int (k, flat, n)
        | 2 when numeric -> Write_float (k, flat, float_of_int n /. 8.0)
        | 1 | 2 | 3 -> Receive (k, flat, v)
        | 4 -> Copy (k, flat, len)
        | 5 -> Relayout (k, l)
        | 6 -> Read_typed (k, strict, flat)
        | _ -> Read (k, strict, flat))
    in
    let* ops = list_size (int_range 1 80) op in
    return (l0, nprocs, procs, elt, ops))

let print_storage_case (l0, nprocs, (p, q), elt, ops) =
  Fmt.str "%a over %a, P = %d, p%d/p%d, %s, %d ops" Layout.pp l0
    Fmt.(list ~sep:comma (pair ~sep:(any ":") int int)) l0.Layout.bounds nprocs p q
    (Ast_printer.dtype_name elt) (List.length ops)

let paged_storage_is_dense =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:400 ~print:print_storage_case
       ~name:"paged storage = dense storage (ops, layouts, ranks 1-3)" storage_gen
       (fun (l0, nprocs, (p, q), elt, ops) ->
         let stats = Stats.create nprocs in
         let objs = Array.map (fun proc -> Storage.alloc ~stats ~proc ~nprocs "a" elt l0) [| p; q |] in
         let zero = store_as elt (if elt = Ast.Logical then Value.Vbool false else Value.Vint 0) in
         let models =
           Array.map
             (fun (o : Storage.array_obj) ->
               let m =
                 { vals = Array.make o.Storage.size zero; ok = Array.make o.Storage.size false;
                   lay = l0; d_proc = o.Storage.owner_proc }
               in
               dense_reset ~nprocs o m;
               m)
             objs
         in
         let write k flat v =
           models.(k).vals.(flat) <- store_as elt v;
           models.(k).ok.(flat) <- true
         in
         let agree () =
           Array.for_all2
             (fun o m ->
               Storage.data o = dense_view elt m
               && Bytes.to_string (Storage.valid o)
                  = String.init (Array.length m.ok) (fun i -> if m.ok.(i) then '\001' else '\000'))
             objs models
         in
         agree ()
         && List.for_all
              (fun op ->
                let reads_agree =
                  match op with
                  | Write_flat (k, flat, v) -> Storage.write_flat objs.(k) flat v; write k flat v; true
                  | Write_int (k, flat, n) ->
                    Storage.write_int objs.(k) flat n; write k flat (Value.Vint n); true
                  | Write_float (k, flat, x) ->
                    Storage.write_float objs.(k) flat x; write k flat (Value.Vreal x); true
                  | Receive (k, flat, v) ->
                    Storage.receive objs.(k) (subscripts_of objs.(k) flat) v; write k flat v; true
                  | Copy (k, flat, len) ->
                    Storage.copy_range ~src:objs.(1 - k) ~dst:objs.(k) flat len;
                    for f = flat to flat + len - 1 do
                      write k f models.(1 - k).vals.(f)
                    done;
                    true
                  | Relayout (k, l) ->
                    Storage.set_layout objs.(k) l;
                    models.(k).lay <- l;
                    dense_reset ~nprocs objs.(k) models.(k);
                    true
                  | Read (k, strict, flat) ->
                    paged_read ~typed:false ~strict objs.(k) flat
                    = dense_read ~strict objs.(k) models.(k) flat
                  | Read_typed (k, strict, flat) ->
                    paged_read ~typed:true ~strict objs.(k) flat
                    = dense_read ~strict objs.(k) models.(k) flat
                in
                reads_agree && agree ())
              ops))

(* A processor materializes the pages it owns or is sent, not the whole
   array: under interproc, jacobi1d (n = 2048) leaves each processor, on
   average, under a quarter of its arrays' pages at P = 64 and at
   P = 1024, where storage of every array's full extent held them all. *)
let storage_footprint_flat_in_p () =
  let src = Fd_workloads.Stencil.jacobi1d ~n:2048 () in
  List.iter
    (fun nprocs ->
      let opts = { Fd_core.Options.default with Fd_core.Options.nprocs } in
      let r = Fd_core.Driver.run_source ~opts src in
      check (Printf.sprintf "P=%d verified" nprocs) true (Fd_core.Driver.verified r);
      let full =
        List.fold_left
          (fun acc (_, (o : Storage.array_obj)) -> acc + (o.Storage.size * ((Sys.word_size / 8) + 1)))
          0 r.Fd_core.Driver.seq.Seq_interp.arrays
      in
      let used = r.Fd_core.Driver.stats.Stats.storage_bytes in
      check
        (Printf.sprintf "P=%d: %d bytes materialized, under a quarter of %d x %d" nprocs used
           nprocs full)
        true
        (used > 0 && 4 * used < nprocs * full))
    [ 64; 1024 ]

(* --- Scheduler ------------------------------------------------------------- *)

(* tiny node programs built by hand *)
let myp = Ast.Var "my$p"

let node_prog ?(nprocs = 2) ~arrays body =
  { Node.n_main = "m"; n_nprocs = nprocs;
    n_common_arrays = []; n_common_scalars = [];
    n_procs =
      [ { Node.np_name = "m"; np_formals = []; np_arrays = arrays;
          np_scalars = []; np_body = Node.N_assign (myp, Ast.Funcall ("myproc", [])) :: body } ] }

let run prog nprocs =
  Scheduler.run (Config.ipsc860 ~nprocs ()) prog

let sched_pingpong () =
  (* p0 sends x(1:4) to p1; p1 receives *)
  let l = { Layout.bounds = [ (1, 8) ]; dist_dim = Some 0; dist = Layout.Block 4 } in
  let arrays = [ { Node.ad_name = "x"; ad_elt = Ast.Real; ad_layout = l } ] in
  let body =
    [ Node.N_if
        { cond = Ast.Bin (Ast.Eq, myp, int_e 0);
          then_ =
            [ Node.N_do
                { var = "i"; lo = int_e 1; hi = int_e 4; step = None;
                  body = [ Node.N_assign (Ast.Ref ("x", [ Ast.Var "i" ]),
                                          Ast.Funcall ("float", [ Ast.Var "i" ])) ] };
              Node.N_send { dest = int_e 1;
                            parts = [ ("x", [ (int_e 1, int_e 4, int_e 1) ]) ];
                            tag = 1; loc = nloc } ];
          else_ = [ Node.N_recv { src = int_e 0; tag = 1; loc = nloc } ] ; loc = nloc } ]
  in
  let stats, frames = run (node_prog ~arrays body) 2 in
  check_int "one message" 1 stats.Stats.messages;
  check_int "32 bytes" 32 stats.Stats.message_bytes;
  (* p1 now holds valid copies *)
  (match Hashtbl.find frames.(1) "x" with
  | Interp.Barray obj ->
    check "value arrived" true
      (Value.to_float (Storage.read ~strict:true obj [| 3 |]) = 3.0)
  | _ -> Alcotest.fail "x missing");
  check "receiver waited" true (Stats.elapsed stats > 0.0)

let sched_recv_before_send () =
  (* p1 posts its receive before p0 ever sends: scheduler must park and
     resume it *)
  let l = { Layout.bounds = [ (1, 4) ]; dist_dim = Some 0; dist = Layout.Block 2 } in
  let arrays = [ { Node.ad_name = "x"; ad_elt = Ast.Real; ad_layout = l } ] in
  let body =
    [ Node.N_if
        { cond = Ast.Bin (Ast.Eq, myp, int_e 1);
          then_ = [ Node.N_recv { src = int_e 0; tag = 9; loc = nloc } ];
          else_ = [] ; loc = nloc };
      Node.N_if
        { cond = Ast.Bin (Ast.Eq, myp, int_e 0);
          then_ =
            [ Node.N_assign (Ast.Ref ("x", [ int_e 1 ]), Ast.Real_const 5.0);
              Node.N_send { dest = int_e 1;
                            parts = [ ("x", [ (int_e 1, int_e 1, int_e 1) ]) ];
                            tag = 9; loc = nloc } ];
          else_ = [] ; loc = nloc } ]
  in
  let stats, _ = run (node_prog ~arrays body) 2 in
  check_int "delivered" 1 stats.Stats.messages

let sched_deadlock () =
  let body = [ Node.N_recv { src = int_e 1; tag = 3; loc = nloc } ] in
  let l = Layout.replicated [ (1, 2) ] in
  let arrays = [ { Node.ad_name = "x"; ad_elt = Ast.Real; ad_layout = l } ] in
  check "deadlock detected" true
    (match run (node_prog ~arrays body) 2 with
    | _ -> false
    | exception Scheduler.Sim_error (Scheduler.Deadlock _) -> true)

let sched_bcast () =
  let l = { Layout.bounds = [ (1, 8) ]; dist_dim = Some 0; dist = Layout.Block 2 } in
  let arrays = [ { Node.ad_name = "x"; ad_elt = Ast.Real; ad_layout = l } ] in
  let body =
    [ Node.N_if
        { cond = Ast.Bin (Ast.Eq, myp, int_e 0);
          then_ = [ Node.N_assign (Ast.Ref ("x", [ int_e 2 ]), Ast.Real_const 9.0) ];
          else_ = [] ; loc = nloc };
      Node.N_bcast
        { root = int_e 0; payload = Node.P_section ("x", [ (int_e 2, int_e 2, int_e 1) ]);
          site = 1; loc = nloc } ]
  in
  let stats, frames = run (node_prog ~nprocs:4 ~arrays body) 4 in
  check_int "one broadcast" 1 stats.Stats.bcasts;
  for p = 1 to 3 do
    match Hashtbl.find frames.(p) "x" with
    | Interp.Barray obj ->
      check "broadcast value" true
        (Value.to_float (Storage.read ~strict:true obj [| 2 |]) = 9.0)
    | _ -> Alcotest.fail "x missing"
  done

let sched_collective_site_mismatch () =
  (* processors disagree on which collective they reach -> deadlock *)
  let l = Layout.replicated [ (1, 2) ] in
  let arrays = [ { Node.ad_name = "x"; ad_elt = Ast.Real; ad_layout = l } ] in
  let body =
    [ Node.N_if
        { cond = Ast.Bin (Ast.Eq, myp, int_e 0);
          then_ = [ Node.N_bcast { root = int_e 0;
                                   payload = Node.P_scalar "s"; site = 1; loc = nloc } ];
          else_ = [ Node.N_bcast { root = int_e 0;
                                   payload = Node.P_scalar "s"; site = 2; loc = nloc } ] ; loc = nloc } ]
  in
  check "mismatched sites deadlock" true
    (match run (node_prog ~arrays body) 2 with
    | _ -> false
    | exception Scheduler.Sim_error (Scheduler.Deadlock _) -> true)

let sched_remap_moves_data () =
  let block = { Layout.bounds = [ (1, 8) ]; dist_dim = Some 0; dist = Layout.Block 2 } in
  let cyc = { Layout.bounds = [ (1, 8) ]; dist_dim = Some 0; dist = Layout.Cyclic } in
  let arrays = [ { Node.ad_name = "x"; ad_elt = Ast.Real; ad_layout = block } ] in
  let body =
    [ (* every processor writes its own block: x(i) = i *)
      Node.N_do
        { var = "i";
          lo = Ast.Bin (Ast.Add, Ast.Bin (Ast.Mul, int_e 2, myp), int_e 1);
          hi = Ast.Bin (Ast.Add, Ast.Bin (Ast.Mul, int_e 2, myp), int_e 2);
          step = None;
          body = [ Node.N_assign (Ast.Ref ("x", [ Ast.Var "i" ]),
                                  Ast.Funcall ("float", [ Ast.Var "i" ])) ] };
      Node.N_remap { array = "x"; new_layout = cyc; move = true; site = 5; loc = nloc };
      (* after the remap every proc owns {p+1, p+5}; read them *)
      Node.N_assign (Ast.Var "v",
                     Ast.Ref ("x", [ Ast.Bin (Ast.Add, myp, int_e 1) ])) ]
  in
  let stats, frames = run (node_prog ~nprocs:4 ~arrays body) 4 in
  check_int "one physical remap" 1 stats.Stats.remaps;
  check "bytes moved" true (stats.Stats.remap_bytes > 0);
  (* each element's owner under the frame's layout holds it, valid *)
  let x_on p =
    match Hashtbl.find_opt frames.(p) "x" with
    | Some (Interp.Barray o) -> o
    | _ -> Alcotest.fail "x missing"
  in
  check "layout switched" true (Layout.equal (x_on 0).Storage.layout cyc);
  for i = 1 to 8 do
    let owner = Layout.owner_of (x_on 0).Storage.layout ~nprocs:4 i in
    check "owner's value" true
      (Value.to_float (Storage.read ~strict:true (x_on owner) [| i |]) = float_of_int i)
  done

let sched_mark_only_remap_moves_nothing () =
  let block = { Layout.bounds = [ (1, 8) ]; dist_dim = Some 0; dist = Layout.Block 2 } in
  let cyc = { Layout.bounds = [ (1, 8) ]; dist_dim = Some 0; dist = Layout.Cyclic } in
  let arrays = [ { Node.ad_name = "x"; ad_elt = Ast.Real; ad_layout = block } ] in
  let body = [ Node.N_remap { array = "x"; new_layout = cyc; move = false; site = 1; loc = nloc } ] in
  let stats, _ = run (node_prog ~nprocs:4 ~arrays body) 4 in
  check_int "mark only" 1 stats.Stats.remap_marks;
  check_int "no bytes" 0 stats.Stats.remap_bytes

let sched_determinism () =
  let src = Fd_workloads.Stencil.jacobi1d ~n:64 ~t:3 () in
  let r1 = Fd_core.Driver.run_source src in
  let r2 = Fd_core.Driver.run_source src in
  check "same elapsed" true
    (Stats.elapsed r1.Fd_core.Driver.stats = Stats.elapsed r2.Fd_core.Driver.stats);
  check_int "same messages" r1.Fd_core.Driver.stats.Stats.messages
    r2.Fd_core.Driver.stats.Stats.messages

(* Simulating one compiled program twice gives the same stats JSON
   (counters, clocks, outputs, the recorded event log), the same trace
   events in the same order, and the same normalized skeleton: no
   simulator state leaks from one run into the next. *)
let sequential_rerun_canary () =
  let examples_dir =
    if Sys.file_exists "../examples" then "../examples" else "examples"
  in
  let src =
    In_channel.with_open_bin (Filename.concat examples_dir "jacobi2d.fd")
      In_channel.input_all
  in
  let opts = { Fd_core.Options.default with Fd_core.Options.nprocs = 8 } in
  let prog = (Fd_core.Driver.compile_source ~opts src).Fd_core.Codegen.program in
  let sim () =
    let tr = Fd_trace.Trace.create () in
    let config = Config.make ~nprocs:8 ~trace:tr () in
    let r = Scheduler.run_partial config prog in
    ( Json.to_string (Stats.to_json r.Scheduler.p_stats),
      Fd_trace.Trace.to_list tr,
      Fd_trace.Export.skeleton tr,
      r.Scheduler.p_frames <> None )
  in
  let stats_a, events_a, skel_a, done_a = sim () in
  let stats_b, events_b, skel_b, done_b = sim () in
  Alcotest.(check string) "stats json" stats_a stats_b;
  check "trace events bit-identical" true (events_a = events_b);
  Alcotest.(check (list string)) "skeleton" skel_a skel_b;
  check "both completed" true (done_a && done_b)

(* --- Remap planning ---------------------------------------------------------- *)

(* An array of rank 1-3 remapped between two layouts of the kind [Decomp]
   builds (Block of ceil(N/P), Cyclic, Block_cyclic k, or nothing
   distributed): within one dimension, across dimensions (within one at
   rank 1), to replicated or from replicated. *)
let remap_case_gen =
  QCheck2.Gen.(
    let* rank = int_range 1 3 in
    let* nprocs = oneofl [ 1; 2; 3; 4; 7; 16 ] in
    let* bounds =
      list_repeat rank
        (let* lo = int_range (-2) 3 in
         let* n = int_range 1 9 in
         return (lo, lo + n - 1))
    in
    let kind =
      oneof
        [ return Ast.Block; return Ast.Cyclic;
          map (fun k -> Ast.Block_cyclic k) (int_range 1 5) ]
    in
    let layout = function
      | None -> Fd_core.Decomp.layout_of (Fd_core.Decomp.replicated rank) ~bounds ~nprocs
      | Some (d, k) ->
        Fd_core.Decomp.layout_of
          (Fd_core.Decomp.of_kinds (List.init rank (fun i -> if i = d then k else Ast.Star)))
          ~bounds ~nprocs
    in
    let* d = int_range 0 (rank - 1) in
    let* shift = int_range 1 (max 1 (rank - 1)) in
    let* k_old = kind in
    let* k_new = kind in
    let* from_, to_ =
      oneofl
        [ (Some (d, k_old), Some (d, k_new));
          (Some (d, k_old), Some ((d + shift) mod rank, k_new));
          (Some (d, k_old), None);
          (None, Some (d, k_new)) ]
    in
    let* elt = oneofl [ Ast.Real; Ast.Integer; Ast.Logical ] in
    let* seed = int in
    return (layout from_, layout to_, nprocs, elt, seed))

let print_remap_case (old_l, new_l, nprocs, elt, _) =
  Fmt.str "%a -> %a over %a, P = %d, %s" Layout.pp old_l Layout.pp new_l
    Fmt.(list ~sep:comma (pair ~sep:(any ":") int int)) old_l.Layout.bounds nprocs
    (Ast_printer.dtype_name elt)

(* Every element's true value [n]; a processor that does not own it
   holds its own garbage instead (the negation, for LOGICAL). *)
let remap_value elt ?garbage_of n =
  let n = n + (1000 * match garbage_of with Some p -> p + 1 | None -> 0) in
  match elt with
  | Ast.Real -> Value.Vreal (float_of_int n)
  | Ast.Integer -> Value.Vint n
  | Ast.Logical -> Value.Vbool (n mod 2 = 0 = Option.is_none garbage_of)

(* Traffic: the summary's per-processor bytes and partner counts are
   [Cost.remap_traffic]'s, its runs expanded per processor, and its pairs
   add up to the total without self-pairs.  Data: afterwards each processor's valid elements are
   exactly its new owned set, each holding the true value. *)
let remap_traffic_and_data =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:400 ~print:print_remap_case
       ~name:"remap: traffic is Cost's, data lands on the new owners" remap_case_gen
       (fun (old_l, new_l, nprocs, elt, seed) ->
         let st = Random.State.make [| seed |] in
         let stats = Stats.create nprocs in
         let objs = Array.init nprocs (fun p -> Storage.alloc ~stats ~proc:p ~nprocs "a" elt old_l) in
         let truth = Array.init objs.(0).Storage.size (fun _ -> Random.State.int st 1000) in
         Array.iteri
           (fun p obj ->
             let valid = Storage.valid obj in
             Storage.iter_elements obj (fun _ flat ->
                 let owned = Bytes.get valid flat = '\001' in
                 Storage.write_flat obj flat
                   (if owned then remap_value elt truth.(flat)
                    else remap_value elt ~garbage_of:p truth.(flat)));
             Storage.set_layout obj old_l)
           objs;
         let rs =
           Collective.plan_remap ~nprocs ~word_bytes:8 ~objs:(Array.map Option.some objs)
             ~obj0:objs.(0) ~new_layout:new_l ~move:true
         in
         let runs, total = Fd_verify.Cost.remap_traffic ~nprocs ~word:8 old_l new_l in
         (* the runs, expanded per pid *)
         let per_pid pick =
           Array.of_list
             (List.concat_map (fun ((l, h, _, _, _) as run) -> List.init (h - l + 1) (fun _ -> pick run)) runs)
         in
         let sent = per_pid (fun (_, _, s, _, _) -> s)
         and received = per_pid (fun (_, _, _, r, _) -> r)
         and npairs = per_pid (fun (_, _, _, _, n) -> n) in
         let traffic_ok =
           rs.Collective.rs_sent = sent && rs.Collective.rs_received = received
           && rs.Collective.rs_npairs = npairs && rs.Collective.rs_total_bytes = total
           && List.fold_left (fun acc (_, b) -> acc + b) 0 rs.Collective.rs_pairs = total
           && List.for_all (fun ((q, r), _) -> q <> r) rs.Collective.rs_pairs
         in
         let data_ok = ref true in
         Array.iteri
           (fun p obj ->
             let owned = Layout.owned_one new_l ~nprocs p in
             let valid = Storage.valid obj in
             Storage.iter_elements obj (fun idx flat ->
                 let owns =
                   match new_l.Layout.dist_dim with
                   | None -> true
                   | Some d -> Iset.mem idx.(d) owned
                 in
                 let valid = Bytes.get valid flat = '\001' in
                 if valid <> owns
                    || (valid && Storage.get_raw obj flat <> remap_value elt truth.(flat))
                 then data_ok := false))
           objs;
         traffic_ok && !data_ok))

(* --- Gather ------------------------------------------------------------------ *)

(* The element-by-element comparison [Gather.compare_results] replaced,
   kept as its oracle: every element against its owner's copy, read
   through [Storage.read_*]. *)
let gather_by_element ~nprocs (seq : Seq_interp.result) (frames : Interp.frame array) =
  List.concat_map
    (fun (name, (seq_obj : Storage.array_obj)) ->
      let copy p =
        match Hashtbl.find frames.(p) name with
        | Interp.Barray o -> o
        | _ -> Alcotest.fail "not an array"
      in
      let layout = (copy 0).Storage.layout in
      let out = ref [] in
      Storage.iter_elements seq_obj (fun idx flat ->
          let p = match layout.Layout.dist_dim with None -> 0 | Some d -> Layout.owner_of layout ~nprocs idx.(d) in
          let sim = copy p in
          let same =
            match seq_obj.Storage.elt with
            | Ast.Real ->
              let x = Storage.read_float ~strict:false seq_obj flat
              and y = Storage.read_float ~strict:false sim flat in
              Float.abs (x -. y) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))
            | Ast.Integer ->
              Storage.read_int ~strict:false seq_obj flat = Storage.read_int ~strict:false sim flat
            | Ast.Logical -> Storage.get_raw seq_obj flat = Storage.get_raw sim flat
          in
          if not same then
            out :=
              { Gather.m_array = name; m_index = Array.copy idx;
                m_expected = Storage.get_raw seq_obj flat; m_actual = Storage.get_raw sim flat }
              :: !out);
      List.rev !out)
    seq.Seq_interp.arrays

(* Random arrays in which each page is left untouched (reading zeros)
   or written, on the sequential side and on each owner independently,
   non-owners holding garbage, and one owned element corrupted: the
   page-wise comparison reports what the element-wise one does, that
   one element. *)
let gather_pagewise =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~print:print_remap_case
       ~name:"gather: page-wise = element-wise, one corrupted element" remap_case_gen
       (fun (layout, _, nprocs, elt, seed) ->
         let st = Random.State.make [| seed |] in
         let stats = Stats.create nprocs in
         let seq_obj =
           Storage.alloc ~stats ~proc:0 ~nprocs:1 "a" elt (Layout.replicated layout.Layout.bounds)
         in
         let size = seq_obj.Storage.size in
         let npages = (size + Storage.page_len - 1) / Storage.page_len in
         let written = Array.init npages (fun _ -> Random.State.bool st) in
         let truth =
           Array.init size (fun flat ->
               if written.(flat / Storage.page_len) then 1 + Random.State.int st 999 else 0)
         in
         (* 0 stands for the zero an untouched page reads *)
         let value n = if n = 0 then Value.zero_of elt else remap_value elt n in
         Array.iteri (fun flat n -> if n <> 0 then Storage.write_flat seq_obj flat (value n)) truth;
         let owner flat =
           match layout.Layout.dist_dim with
           | None -> 0
           | Some d -> Layout.owner_of layout ~nprocs (Storage.index_of seq_obj flat).(d)
         in
         let objs = Array.init nprocs (fun p -> Storage.alloc ~stats ~proc:p ~nprocs "a" elt layout) in
         Array.iteri
           (fun p obj ->
             let touched = Array.init npages (fun pg -> written.(pg) || Random.State.bool st) in
             for flat = 0 to size - 1 do
               if touched.(flat / Storage.page_len) then
                 Storage.write_flat obj flat
                   (if owner flat = p then value truth.(flat)
                    else remap_value elt ~garbage_of:p truth.(flat))
             done)
           objs;
         let bad = Random.State.int st size in
         Storage.write_flat objs.(owner bad) bad
           (match value truth.(bad) with
           | Value.Vbool b -> Value.Vbool (not b)
           | v -> Value.add v (Value.Vint 1));
         let frames =
           Array.map
             (fun obj ->
               let fr = Hashtbl.create 1 in
               Hashtbl.replace fr "a" (Interp.Barray obj);
               fr)
             objs
         in
         let seq =
           { Seq_interp.arrays = [ ("a", seq_obj) ]; outputs = []; flops = 0; mem_ops = 0;
             seq_time = 0.0 }
         in
         let pagewise = Gather.compare_results ~nprocs seq frames in
         pagewise = gather_by_element ~nprocs seq frames
         && List.map (fun m -> m.Gather.m_index) pagewise = [ Storage.index_of seq_obj bad ]))

(* --- Cost model ------------------------------------------------------------ *)

let cost_message () =
  let c = Config.ipsc860 ~nprocs:4 () in
  check "alpha dominates small messages" true
    (Config.message_cost c 8 < 2.0 *. c.Config.alpha);
  check "beta dominates large messages" true
    (Config.message_cost c 1_000_000 > 100.0 *. c.Config.alpha)

let cost_bcast_tree () =
  (* ceil (log2 P) stages of one message each *)
  let stages nprocs k =
    let c = Config.ipsc860 ~nprocs () in
    check (Printf.sprintf "P=%d takes %d stages" nprocs k) true
      (Config.bcast_cost c 1024 = float_of_int k *. Config.message_cost c 1024)
  in
  stages 1 0;
  stages 2 1;
  stages 5 3;
  stages 8 3;
  stages 9 4

(* --- Sequential interpreter -------------------------------------------------- *)

let seq_basic () =
  let cp =
    Sema.check_source
      "program p\n  real x(4)\n  integer i\n  do i = 1, 4\n    x(i) = float(i) * 2.0\n  enddo\n  print *, x(4)\nend\n"
  in
  let r = Seq_interp.run cp in
  check "output" true (r.Seq_interp.outputs = [ "8" ]);
  let x = List.assoc "x" r.Seq_interp.arrays in
  check "x(2)" true (Value.to_float (Storage.read ~strict:false x [| 2 |]) = 4.0)

let seq_call_by_reference () =
  let cp =
    Sema.check_source
      "program p\n  real x(2)\n  integer n\n  n = 1\n  call f(x, n)\n  print *, x(1), n\nend\nsubroutine f(y, m)\n  real y(2)\n  integer m\n  y(1) = 42.0\n  m = 7\nend\n"
  in
  let r = Seq_interp.run cp in
  check "by-reference effects" true (r.Seq_interp.outputs = [ "42 7" ])

let seq_expression_actual_by_value () =
  let cp =
    Sema.check_source
      "program p\n  integer n\n  n = 1\n  call f(n + 0)\n  print *, n\nend\nsubroutine f(m)\n  integer m\n  m = 9\nend\n"
  in
  let r = Seq_interp.run cp in
  check "expression actual copies" true (r.Seq_interp.outputs = [ "1" ])

let suite =
  [
    Alcotest.test_case "layout block" `Quick l_block_owned;
    Alcotest.test_case "layout ragged block" `Quick l_block_ragged;
    Alcotest.test_case "layout cyclic" `Quick l_cyclic_owned;
    Alcotest.test_case "layout block-cyclic" `Quick l_block_cyclic;
    l_partition_property;
    Alcotest.test_case "storage validity" `Quick st_validity;
    Alcotest.test_case "storage bounds check" `Quick st_bounds_check;
    Alcotest.test_case "storage layout reset" `Quick st_set_layout_resets;
    paged_storage_is_dense;
    Alcotest.test_case "storage footprint flat in P" `Quick storage_footprint_flat_in_p;
    Alcotest.test_case "scheduler ping-pong" `Quick sched_pingpong;
    Alcotest.test_case "scheduler recv-before-send" `Quick sched_recv_before_send;
    Alcotest.test_case "scheduler deadlock" `Quick sched_deadlock;
    Alcotest.test_case "scheduler broadcast" `Quick sched_bcast;
    Alcotest.test_case "scheduler site mismatch" `Quick sched_collective_site_mismatch;
    Alcotest.test_case "scheduler remap moves data" `Quick sched_remap_moves_data;
    Alcotest.test_case "scheduler mark-only remap" `Quick sched_mark_only_remap_moves_nothing;
    remap_traffic_and_data;
    gather_pagewise;
    Alcotest.test_case "scheduler determinism" `Quick sched_determinism;
    Alcotest.test_case "sequential rerun canary" `Quick sequential_rerun_canary;
    Alcotest.test_case "cost model messages" `Quick cost_message;
    Alcotest.test_case "cost model tree broadcast" `Quick cost_bcast_tree;
    Alcotest.test_case "seq interp basics" `Quick seq_basic;
    Alcotest.test_case "seq interp by-reference" `Quick seq_call_by_reference;
    Alcotest.test_case "seq interp by-value expr" `Quick seq_expression_actual_by_value;
  ]
