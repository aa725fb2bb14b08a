(* The frame layout of a program unit, shared by the evaluator and the
   verifier: Fortran 77 frame rules, kinds only, no values. *)

open Fd_frontend

type kind =
  | Formal of int * Ast.dtype option  (* the actual's position; a formal array's element type *)
  | Common of int
  | Local_array of Node.array_decl
  | Local_scalar of Ast.dtype

(* Slots are numbered in order of declaration. *)
type t = { slots : (string, int) Hashtbl.t; mutable kinds : kind array }

let find t name = Hashtbl.find_opt t.slots name
let kind t i = t.kinds.(i)
let size t = Array.length t.kinds
let fold f t acc = Hashtbl.fold f t.slots acc

(* The name's slot: its first, or a new one of [kind]. *)
let declare t name kind =
  match find t name with
  | Some i -> i
  | None ->
    Hashtbl.replace t.slots name (size t);
    t.kinds <- Array.append t.kinds [| kind |];
    size t - 1

(* Formals first, a repeated one binding its last actual; then the
   arrays and scalars that are neither formals nor COMMON. *)
let make ~formals ~arrays ~scalars ~is_common =
  let t = { slots = Hashtbl.create 16; kinds = [||] } in
  let elt f =
    Option.map (fun ad -> ad.Node.ad_elt) (List.find_opt (fun ad -> ad.Node.ad_name = f) arrays)
  in
  List.iteri
    (fun k f ->
      let formal = Formal (k, elt f) in
      t.kinds.(declare t f formal) <- formal)
    formals;
  let local name = not (Hashtbl.mem t.slots name || is_common name) in
  let add name kind = if local name then ignore (declare t name kind) in
  List.iter (fun (ad : Node.array_decl) -> add ad.Node.ad_name (Local_array ad)) arrays;
  List.iter (fun (v, ty) -> add v (Local_scalar ty)) scalars;
  t

let common ~arrays ~scalars = make ~formals:[] ~arrays ~scalars ~is_common:(fun _ -> false)

(* The unit's own names, then COMMON, then a fresh implicitly typed
   scalar of the frame. *)
let slot t ~common name =
  try Hashtbl.find t.slots name
  with Not_found ->
    declare t name
      (match find common name with
      | Some j -> Common j
      | None -> Local_scalar (Ast.implicit_type name))
