(* Communication generation: turn per-processor need families into
   guarded send/recv statements (with closed-form sections where an affine
   form in my$p exists) and one-owner/all-consumer sections into
   broadcasts.  This implements instantiation of the RSDs the analysis
   phases delay and propagate (paper Sections 5.4, Figure 11). *)

open Fd_support
open Fd_frontend
open Fd_machine

let int_e n = Ast.Int_const n
let myp = Fit.myp

type other_dim =
  | Od_point of Ast.expr             (* single index expression *)
  | Od_range of Ast.expr * Ast.expr  (* contiguous index range *)
  | Od_full of int * int             (* whole declared extent *)

let other_dim_section = function
  | Od_point e -> (e, e, int_e 1)
  | Od_range (lo, hi) -> (lo, hi, int_e 1)
  | Od_full (lo, hi) -> (int_e lo, int_e hi, int_e 1)

(* Assemble a full section: [other_dims] lists the non-distributed
   dimensions in order; the distributed dimension's triplet is inserted at
   position [dim]. *)
let assemble_section ~rank ~dim dist_triplet (other_dims : other_dim list) :
    Node.section =
  if List.length other_dims <> rank - 1 then
    Diag.error "communication section rank mismatch";
  let rec build d others =
    if d >= rank then []
    else if d = dim then dist_triplet :: build (d + 1) others
    else
      match others with
      | o :: rest -> other_dim_section o :: build (d + 1) rest
      | [] -> Diag.internal ~pass:"codegen" "section dimension underflow"
  in
  build 0 other_dims

let guarded ?(loc = Loc.none) guard stmts =
  match (guard, stmts) with
  | _, [] -> []
  | None, _ -> stmts
  | Some (Ast.Logical_const false), _ -> []
  | Some g, _ -> [ Node.N_if { cond = g; then_ = stmts; else_ = []; loc } ]

(* Emit the guarded send/recv statements realizing point-to-point section
   transfers: for each part (array, need, other_dims), processor p must
   come to hold need(p); [layout] says who holds what.  Several parts
   aggregate into one message per processor pair (paper Fig. 11).
   Senders are emitted before receivers (sends are asynchronous), grouped
   by sender-receiver offset so the common shift patterns compile to one
   guarded statement each.

   The transfers of each offset are a family over the senders in closed
   form ({!Layout.transfers}), so a shift costs O(1) set operations at any P
   when every processor owns one block.  Offsets are emitted ascending;
   an offset whose sections have no closed form falls back to one
   message per pair, prepended in ascending sender order. *)
let emit_section_comm_multi ?(loc = Loc.none) ~nprocs ~tag
    ~(layout : Layout.t) ~dim
    ~(parts : (string * Lanes.family * other_dim list) list) () :
    Node.nstmt list =
  let rank = Layout.rank layout in
  let xfers =
    List.map (fun (array, need, other_dims) -> (array, Layout.transfers layout ~nprocs need, other_dims)) parts
  in
  let deltas =
    List.sort_uniq compare (List.concat_map (fun (_, xs, _) -> List.map fst xs) xfers)
  in
  let sends = ref [] and recvs = ref [] in
  List.iter
    (fun delta ->
      let fams =
        List.map
          (fun (array, xs, other_dims) ->
            (array, Option.value (List.assoc_opt delta xs) ~default:(Lanes.empty ~nprocs), other_dims))
          xfers
      in
      (* the senders of this offset: where any part is nonempty *)
      let qs =
        Iset.intervals
          (Iset.of_intervals (List.concat_map (fun (_, f, _) -> Lanes.support f) fams))
      in
      let emit_fallback () =
        List.iter
          (fun (qlo, qhi) ->
            for q = qlo to qhi do
              let p = q - delta in
              let msg_parts =
                List.concat_map
                  (fun (array, f, other_dims) ->
                    List.map
                      (fun t ->
                        ( array,
                          assemble_section ~rank ~dim
                            (int_e (Triplet.lo t), int_e (Triplet.hi t), int_e (Triplet.step t))
                            other_dims ))
                      (Iset.triplets (Lanes.set_at f q)))
                  fams
              in
              if msg_parts <> [] then begin
                sends :=
                  guarded ~loc
                    (Some (Ast.Bin (Ast.Eq, myp, int_e q)))
                    [ Node.N_send { dest = int_e p; parts = msg_parts; tag; loc } ]
                  @ !sends;
                recvs :=
                  guarded ~loc
                    (Some (Ast.Bin (Ast.Eq, myp, int_e p)))
                    [ Node.N_recv { src = int_e q; tag; loc } ]
                  @ !recvs
              end
            done)
          qs
      in
      let nonempty = List.filter (fun (_, f, _) -> f.Lanes.runs <> []) fams in
      (* a part whose section is empty on some sender cannot be inlined *)
      let msg_parts =
        List.filter_map
          (fun (array, f, other_dims) ->
            match Fit.fit f with
            | Some { Fit.f_lo; f_hi; f_step; f_guard = _ } when Lanes.support f = qs ->
              Some (array, assemble_section ~rank ~dim (f_lo, f_hi, f_step) other_dims)
            | _ -> None)
          nonempty
      in
      if List.length msg_parts = List.length nonempty && msg_parts <> [] then begin
        let dest =
          if delta > 0 then Ast.Bin (Ast.Sub, myp, int_e delta)
          else Ast.Bin (Ast.Add, myp, int_e (-delta))
        in
        sends :=
          !sends
          @ guarded ~loc (Fit.guard_of_mask ~nprocs qs)
              [ Node.N_send { dest; parts = msg_parts; tag; loc } ];
        let src =
          if delta > 0 then Ast.Bin (Ast.Add, myp, int_e delta)
          else Ast.Bin (Ast.Sub, myp, int_e (-delta))
        in
        recvs :=
          !recvs
          @ guarded ~loc
              (Fit.guard_of_mask ~nprocs (List.map (fun (lo, hi) -> (lo - delta, hi - delta)) qs))
              [ Node.N_recv { src; tag; loc } ]
      end
      else emit_fallback ())
    deltas;
  !sends @ !recvs

(* Owner arithmetic for an index expression under a layout. *)
let owner_expr ~nprocs (layout : Layout.t) (index : Ast.expr) : Ast.expr =
  match (layout.Layout.dist_dim, layout.Layout.dist) with
  | None, _ | _, Layout.Replicated -> int_e 0
  | Some d, Layout.Block b ->
    let lo, _ = List.nth layout.Layout.bounds d in
    let shifted =
      if lo = 0 then index else Ast.Bin (Ast.Sub, index, int_e lo)
    in
    Ast.Funcall ("min", [ Ast.Bin (Ast.Div, shifted, int_e b); int_e (nprocs - 1) ])
  | Some d, Layout.Cyclic ->
    let lo, _ = List.nth layout.Layout.bounds d in
    let shifted =
      if lo = 0 then index else Ast.Bin (Ast.Sub, index, int_e lo)
    in
    Ast.Funcall ("mod", [ shifted; int_e nprocs ])
  | Some d, Layout.Block_cyclic b ->
    let lo, _ = List.nth layout.Layout.bounds d in
    let shifted =
      if lo = 0 then index else Ast.Bin (Ast.Sub, index, int_e lo)
    in
    Ast.Funcall
      ("mod", [ Ast.Bin (Ast.Div, shifted, int_e b); int_e nprocs ])

let owner_guard ~nprocs layout index =
  Ast.Bin (Ast.Eq, myp, owner_expr ~nprocs layout index)

(* Broadcast of the section of [array] at distributed index [index]
   (other dimensions per [other_dims]) from its owner to everyone. *)
let emit_bcast_section ?(loc = Loc.none) ~nprocs ~site ~array
    ~(layout : Layout.t) ~dim ~index ~(other_dims : other_dim list) () :
    Node.nstmt =
  let rank = Layout.rank layout in
  let sec = assemble_section ~rank ~dim (index, index, int_e 1) other_dims in
  Node.N_bcast
    { root = owner_expr ~nprocs layout index;
      payload = Node.P_section (array, sec);
      site; loc }

let emit_bcast_scalar ?(loc = Loc.none) ~site ~root (name : string) : Node.nstmt =
  Node.N_bcast { root; payload = Node.P_scalar name; site; loc }
