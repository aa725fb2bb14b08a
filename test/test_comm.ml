(* Section communication against a dense reference: the emitter builds
   each offset's transfers as a closed-form family; the reference below
   intersects every receiver's nonlocal set with all P owned sets, as a
   P x P transfer matrix, and fits the result with the dense search of
   {!Dense_fit}.  Both must print the same node statements, in the same
   order. *)

open Fd_support
open Fd_frontend
open Fd_core
open Fd_machine

let int_e n = Ast.Int_const n
let myp = Fit.myp

(* The dense P x P emitter, kept only as a test oracle. *)
let dense_section_comm ~nprocs ~tag ~(layout : Layout.t) ~dim ~parts :
    Node.nstmt list =
  let loc = Loc.none and rank = Layout.rank layout in
  let owned = Array.init nprocs (Layout.owned_one layout ~nprocs) in
  let xfers =
    List.map
      (fun (array, need, other_dims) ->
        let xfer = Array.make_matrix nprocs nprocs Iset.empty in
        for p = 0 to nprocs - 1 do
          let nonlocal = Iset.diff need.(p) owned.(p) in
          for q = 0 to nprocs - 1 do
            let s = Iset.inter nonlocal owned.(q) in
            if q <> p && not (Iset.is_empty s) then xfer.(q).(p) <- s
          done
        done;
        (array, xfer, other_dims))
      parts
  in
  let pair_nonempty q p =
    List.exists (fun (_, xfer, _) -> not (Iset.is_empty xfer.(q).(p))) xfers
  in
  let in_range p = p >= 0 && p < nprocs in
  let deltas = ref [] in
  for q = 0 to nprocs - 1 do
    for p = 0 to nprocs - 1 do
      if pair_nonempty q p && not (List.mem (q - p) !deltas) then
        deltas := (q - p) :: !deltas
    done
  done;
  let sends = ref [] and recvs = ref [] in
  let fallback delta =
    for q = 0 to nprocs - 1 do
      let p = q - delta in
      if in_range p && pair_nonempty q p then begin
        let msg_parts =
          List.concat_map
            (fun (array, xfer, other_dims) ->
              List.map
                (fun t ->
                  ( array,
                    Comm.assemble_section ~rank ~dim
                      (int_e (Triplet.lo t), int_e (Triplet.hi t), int_e (Triplet.step t))
                      other_dims ))
                (Iset.triplets xfer.(q).(p)))
            xfers
        in
        if msg_parts <> [] then begin
          sends :=
            Comm.guarded ~loc (Some (Ast.Bin (Ast.Eq, myp, int_e q)))
              [ Node.N_send { dest = int_e p; parts = msg_parts; tag; loc } ]
            @ !sends;
          recvs :=
            Comm.guarded ~loc (Some (Ast.Bin (Ast.Eq, myp, int_e p)))
              [ Node.N_recv { src = int_e q; tag; loc } ]
            @ !recvs
        end
      end
    done
  in
  List.iter
    (fun delta ->
      let fitted =
        List.map
          (fun (array, xfer, other_dims) ->
            let sets =
              Array.init nprocs (fun q ->
                  if in_range (q - delta) then xfer.(q).(q - delta) else Iset.empty)
            in
            (array, sets, other_dims, Dense_fit.fit_procset_opt sets))
          xfers
      in
      let send_mask = Array.init nprocs (fun q -> in_range (q - delta) && pair_nonempty q (q - delta)) in
      let recv_mask = Array.init nprocs (fun p -> in_range (p + delta) && pair_nonempty (p + delta) p) in
      let nonempty (_, sets, _, _) = not (Array.for_all Iset.is_empty sets) in
      let msg_parts =
        List.filter_map
          (fun (array, sets, other_dims, f) ->
            match f with
            | Some { Dense_fit.f_lo; f_hi; f_step; _ }
              when not (List.exists (fun q -> send_mask.(q) && Iset.is_empty sets.(q))
                          (List.init nprocs Fun.id)) ->
              Some (array, Comm.assemble_section ~rank ~dim (f_lo, f_hi, f_step) other_dims)
            | _ -> None)
          fitted
      in
      let all_fit = List.for_all (fun ((_, _, _, f) as x) -> f <> None || not (nonempty x)) fitted in
      if all_fit && msg_parts <> []
         && List.length msg_parts = List.length (List.filter nonempty fitted)
      then begin
        let dest, src =
          if delta > 0 then (Ast.Bin (Ast.Sub, myp, int_e delta), Ast.Bin (Ast.Add, myp, int_e delta))
          else (Ast.Bin (Ast.Add, myp, int_e (-delta)), Ast.Bin (Ast.Sub, myp, int_e (-delta)))
        in
        sends :=
          !sends
          @ Comm.guarded ~loc (Dense_fit.guard_of_mask send_mask)
              [ Node.N_send { dest; parts = msg_parts; tag; loc } ];
        recvs :=
          !recvs
          @ Comm.guarded ~loc (Dense_fit.guard_of_mask recv_mask) [ Node.N_recv { src; tag; loc } ]
      end
      else fallback delta)
    (List.sort compare !deltas);
  !sends @ !recvs

let render stmts = Fmt.str "%a" Fmt.(list ~sep:(any "") (Node.pp_nstmt 0)) stmts

(* --- generators ----------------------------------------------------------- *)

(* A rank-1 or rank-2 layout whose distributed dimension has a lower
   bound drawn around (rarely at) 1. *)
let layout_gen =
  QCheck2.Gen.(
    let* lo = int_range (-6) 6 in
    let* extent = int_range 1 70 in
    let* rank2 = bool in
    let* kind = frequencyl [ (3, 0); (2, 1); (2, 2); (1, 3); (1, 4) ] in
    let* b = int_range 1 12 in
    let dbounds = (lo, lo + extent - 1) in
    let bounds, d = if rank2 then ([ (1, 3); dbounds ], 1) else ([ dbounds ], 0) in
    let dist_dim, dist =
      match kind with
      | 0 -> (Some d, Layout.Block b)
      | 1 -> (Some d, Layout.Cyclic)
      | 2 -> (Some d, Layout.Block_cyclic b)
      | 3 -> (Some d, Layout.Replicated)
      | _ -> (None, Layout.Replicated)
    in
    return ({ Layout.bounds; dist_dim; dist }, d))

(* Random need sets, each as the emitter's family and as the oracle's
   array: the owned blocks shifted (clipped to the bounds or not) in
   closed form, random strided triplets reaching past both bounds, empty
   sets, and shifts with a few processors overridden. *)
let need_gen (layout : Layout.t) d nprocs =
  QCheck2.Gen.(
    let dlo, dhi = Layout.dim_bounds layout d in
    let owned = Array.init nprocs (Layout.owned_one layout ~nprocs) in
    let triplet =
      let* lo = int_range (dlo - 5) (dhi + 5) in
      let* len = int_range 0 20 in
      let* step = oneofl [ 1; 1; 2; 3; nprocs ] in
      return (Iset.of_triplet (Triplet.make ~lo ~hi:(lo + len) ~step))
    in
    let random_set =
      let* k = int_range 0 2 in
      let* ts = list_repeat k triplet in
      return (List.fold_left Iset.union Iset.empty ts)
    in
    let* mode = frequencyl [ (3, 0); (3, 1); (1, 2); (3, 3); (1, 4) ] in
    let* k = int_range (-4) 4 in
    let* clip = bool in
    let shifted p =
      Iset.inter (Iset.shift k owned.(p))
        (if clip then Iset.range dlo dhi else Iset.range (dlo - 9) (dhi + 9))
    in
    let dense need = return (Dense_fit.family_of_array need, need) in
    match mode with
    | 0 ->
      let range = if clip then Triplet.range dlo dhi else Triplet.range (dlo - 9) (dhi + 9) in
      return (Layout.partition layout ~nprocs ~shift:(-k) range, Array.init nprocs shifted)
    | 1 -> array_repeat nprocs random_set >>= dense
    | 2 -> dense (Array.make nprocs Iset.empty)
    | 3 ->
      let* overrides = list_size (int_range 1 3) (pair (int_range 0 (nprocs - 1)) random_set) in
      let need = Array.init nprocs shifted in
      List.iter (fun (p, s) -> need.(p) <- s) overrides;
      dense need
    | _ -> dense (Array.make nprocs (Iset.range (dlo - 1) (dhi + 1))))

let case_gen =
  QCheck2.Gen.(
    let* layout, d = layout_gen in
    let* nprocs = int_range 1 48 in
    let* nparts = int_range 1 3 in
    let* needs = list_repeat nparts (need_gen layout d nprocs) in
    let other_dims = if Layout.rank layout = 2 then [ Comm.Od_full (1, 3) ] else [] in
    let parts = List.mapi (fun i need -> (Fmt.str "a%d" i, need, other_dims)) needs in
    return (layout, d, nprocs, parts))

let print_case (layout, _, nprocs, parts) =
  Fmt.str "P=%d %a bounds=%s needs=%s" nprocs Layout.pp layout
    (String.concat "," (List.map (fun (a, b) -> Fmt.str "%d:%d" a b) layout.Layout.bounds))
    (String.concat " | "
       (List.map
          (fun (_, (_, need), _) -> String.concat ";" (Array.to_list (Array.map Iset.to_string need)))
          parts))

(* --- properties ------------------------------------------------------------- *)

let prop ?(count = 500) name ?print gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ?print gen f)

let sparse_matches_dense =
  prop "comm: sparse pairs emit what the dense P x P scan emits" ~print:print_case
    case_gen (fun (layout, dim, nprocs, parts) ->
      let fams = List.map (fun (a, (fam, _), od) -> (a, fam, od)) parts in
      let arrays = List.map (fun (a, (_, need), od) -> (a, need, od)) parts in
      let sparse = Comm.emit_section_comm_multi ~nprocs ~tag:3 ~layout ~dim ~parts:fams () in
      let dense = dense_section_comm ~nprocs ~tag:3 ~layout ~dim ~parts:arrays in
      String.equal (render sparse) (render dense))

let owners_exact =
  prop "layout: owners_of_interval = processors whose owned set meets it"
    QCheck2.Gen.(
      let* layout, d = layout_gen in
      let* nprocs = int_range 1 48 in
      let dlo, dhi = Layout.dim_bounds layout d in
      let* lo = int_range (dlo - 8) (dhi + 8) in
      let* len = int_range (-1) 30 in
      return (layout, nprocs, lo, lo + len))
    (fun (layout, nprocs, lo, hi) ->
      let brute =
        List.filter
          (fun q -> not (Iset.is_empty (Iset.inter (Layout.owned_one layout ~nprocs q) (Iset.range lo hi))))
          (List.init nprocs Fun.id)
      in
      (* and the point query, decoded, at every index in and around the
         bounds: -1 is nobody, nprocs everyone *)
      let dlo, dhi =
        match layout.Layout.dist_dim with
        | None -> List.nth layout.Layout.bounds 0
        | Some d -> Layout.dim_bounds layout d
      in
      let point_ok g =
        let got =
          match Layout.exact_owner layout ~nprocs g with
          | -1 -> Iset.empty
          | p when p = nprocs -> Iset.range 0 (nprocs - 1)
          | p -> Iset.singleton p
        in
        Iset.equal got (Layout.owners_of_interval layout ~nprocs g g)
      in
      Iset.to_list (Layout.owners_of_interval layout ~nprocs lo hi) = brute
      && List.for_all point_ok (List.init (dhi - dlo + 17) (fun k -> dlo - 8 + k)))

(* --- scaling guard ------------------------------------------------------------ *)

(* Allocation of a block-distributed compile grows linearly in P: 4x the
   processors allocate about 4x the words (the dense matrix gave 16x).
   Counted in words, not seconds, so the test is deterministic. *)
let compile_alloc_linear () =
  let cp = Sema.check_source (Fd_workloads.Figures.fig1 ()) in
  let words nprocs =
    let opts = { Options.default with Options.nprocs } in
    let before = Gc.minor_words () in
    ignore (Driver.compile ~opts cp);
    Gc.minor_words () -. before
  in
  let small = words 2048 and large = words 8192 in
  if large > 6.0 *. small then
    Alcotest.failf "fig1 compile allocates %.0f words at P=8192, %.1fx P=2048's %.0f"
      large (large /. small) small

(* Partitions, needs and send sets are closed-form families, and
   guards on pids at a constant stride print as mod(my$p, k) == r, so a
   compile allocates about as much at P = 262,144 as at P = 4,096: at
   most 1.5x the words, on every example. *)
let compile_alloc_flat () =
  let dir = if Sys.file_exists "../examples" then "../examples" else "examples" in
  List.iter
    (fun name ->
      let file = Filename.concat dir (name ^ ".fd") in
      let src = In_channel.with_open_bin file In_channel.input_all in
      let cp = Driver.check_source ~file src in
      let words nprocs =
        let opts = { Options.default with Options.nprocs } in
        let before = Gc.minor_words () in
        ignore (Driver.compile ~opts cp);
        Gc.minor_words () -. before
      in
      let small = words 4096 and large = words 262144 in
      if large > 1.5 *. small then
        Alcotest.failf "%s compile allocates %.0f words at P=262144, %.2fx P=4096's %.0f" name
          large (large /. small) small)
    [ "fig1"; "fig4"; "fig15"; "jacobi1d"; "jacobi2d"; "multi_array"; "dgefa"; "adi_dynamic";
      "adi_static"; "redblack" ]

let suite =
  [ sparse_matches_dense;
    owners_exact;
    Alcotest.test_case "fig1 compile allocation linear in P" `Quick compile_alloc_linear;
    Alcotest.test_case "compile allocation flat in P on the examples" `Quick compile_alloc_flat ]
