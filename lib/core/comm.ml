(* Communication generation: turn concrete per-processor need sets into
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

   Only the pairs that communicate are enumerated: receiver p's nonlocal
   indices are intersected with the owned sets of their owners
   ({!Layout.owners_of_interval}), never with all P owned sets, so a
   shift costs O(P) rather than O(P^2).  The emission order is that of a
   dense P x P scan: offsets ascending, fitted classes appended, fallback
   pairs prepended in ascending sender order. *)
let emit_section_comm_multi ?(loc = Loc.none) ~nprocs ~tag
    ~(layout : Layout.t) ~dim
    ~(parts : (string * Iset.t array * other_dim list) list) () :
    Node.nstmt list =
  let rank = Layout.rank layout and owned = Layout.owned layout ~nprocs in
  (* the communicating (sender, receiver) pairs, and the senders of each
     offset class q - p *)
  let pairs = Hashtbl.create 64 and senders = Hashtbl.create 8 in
  (* per-part transfer tables holding the nonempty sets only *)
  let xfers =
    List.map
      (fun (array, need, other_dims) ->
        let xfer = Hashtbl.create 64 in
        for p = 0 to nprocs - 1 do
          let nonlocal = Iset.diff need.(p) owned.(p) in
          let candidates =
            Iset.of_intervals
              (Iset.fold_intervals
                 (fun acc lo hi ->
                   Iset.intervals (Layout.owners_of_interval layout ~nprocs lo hi) @ acc)
                 [] nonlocal)
          in
          Iset.fold_intervals
            (fun () qlo qhi ->
              for q = qlo to qhi do
                let s = Iset.inter nonlocal owned.(q) in
                if q <> p && not (Iset.is_empty s) then begin
                  Hashtbl.replace xfer (q, p) s;
                  if not (Hashtbl.mem pairs (q, p)) then begin
                    Hashtbl.add pairs (q, p) ();
                    Hashtbl.replace senders (q - p)
                      (q :: Option.value ~default:[] (Hashtbl.find_opt senders (q - p)))
                  end
                end
              done)
            () candidates
        done;
        (array, xfer, other_dims))
      parts
  in
  let find xfer q p = Option.value ~default:Iset.empty (Hashtbl.find_opt xfer (q, p)) in
  if Hashtbl.length pairs = 0 then []
  else begin
    (* offset classes present *)
    let deltas = List.sort compare (List.of_seq (Hashtbl.to_seq_keys senders)) in
    let sends = ref [] and recvs = ref [] in
    let emit_fallback_pair q p =
      (* one concrete message for the pair, all parts inline *)
      let msg_parts =
        List.concat_map
          (fun (array, xfer, other_dims) ->
            List.map
              (fun t ->
                ( array,
                  assemble_section ~rank ~dim
                    (int_e (Triplet.lo t), int_e (Triplet.hi t),
                     int_e (Triplet.step t))
                    other_dims ))
              (Iset.triplets (find xfer q p)))
          xfers
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
    in
    List.iter
      (fun delta ->
        (* sender q transfers to q - delta; fit each part's section *)
        let qs = List.sort compare (Hashtbl.find senders delta) in
        let emit_fallback () = List.iter (fun q -> emit_fallback_pair q (q - delta)) qs in
        let fitted =
          List.map
            (fun (array, xfer, other_dims) ->
              let send_sets = Array.make nprocs Iset.empty in
              List.iter (fun q -> send_sets.(q) <- find xfer q (q - delta)) qs;
              (array, send_sets, other_dims, Fit.fit_procset_opt send_sets))
            xfers
        in
        let all_fit =
          List.for_all (fun (_, sets, _, f) ->
              f <> None || Array.for_all Iset.is_empty sets)
            fitted
        in
        if all_fit then begin
          (* the message exists on processors where any part is nonempty *)
          let send_mask = Array.make nprocs false
          and recv_mask = Array.make nprocs false in
          List.iter
            (fun q ->
              send_mask.(q) <- true;
              recv_mask.(q - delta) <- true)
            qs;
          let msg_parts =
            List.filter_map
              (fun (array, sets, other_dims, f) ->
                match f with
                | None -> None
                | Some { Fit.f_lo; f_hi; f_step; f_guard = _ } ->
                  (* empty processors inside the send mask rely on the
                     fitted lo > hi junk to contribute no elements; with
                     a guard we cannot inline this part, so fall back *)
                  if List.exists (fun q -> Iset.is_empty sets.(q)) qs then None
                  else
                    Some (array, assemble_section ~rank ~dim (f_lo, f_hi, f_step) other_dims))
              fitted
          in
          let complete =
            List.length msg_parts
            = List.length
                (List.filter
                   (fun (_, sets, _, _) -> not (Array.for_all Iset.is_empty sets))
                   fitted)
          in
          if complete && msg_parts <> [] then begin
            let dest =
              if delta > 0 then Ast.Bin (Ast.Sub, myp, int_e delta)
              else Ast.Bin (Ast.Add, myp, int_e (-delta))
            in
            sends :=
              !sends
              @ guarded ~loc (Fit.guard_of_mask send_mask)
                  [ Node.N_send { dest; parts = msg_parts; tag; loc } ];
            let src =
              if delta > 0 then Ast.Bin (Ast.Add, myp, int_e delta)
              else Ast.Bin (Ast.Sub, myp, int_e (-delta))
            in
            recvs :=
              !recvs
              @ guarded ~loc (Fit.guard_of_mask recv_mask)
                  [ Node.N_recv { src; tag; loc } ]
          end
          else emit_fallback ()
        end
        else emit_fallback ())
      deltas;
    !sends @ !recvs
  end

let emit_section_comm ?(loc = Loc.none) ~nprocs ~tag ~array
    ~(layout : Layout.t) ~dim ~(need : Iset.t array)
    ~(other_dims : other_dim list) () : Node.nstmt list =
  emit_section_comm_multi ~loc ~nprocs ~tag ~layout ~dim
    ~parts:[ (array, need, other_dims) ] ()

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
