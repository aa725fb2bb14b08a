(* Per-procedure symbol table built by {!Sema}. *)

open Fd_support

type array_info = {
  elt : Ast.dtype;
  dims : (int * int) list;  (* declared bounds, resolved to constants *)
}

type entry =
  | Scalar of Ast.dtype
  | Array of array_info
  | Param of int  (* named integer compile-time constant *)
  | Decomposition of (int * int) list

type t = {
  table : (string, entry) Hashtbl.t;
  common_of : (string, string) Hashtbl.t;  (* member name -> block name *)
  formal_order : string list;
  unit_name : string;
}

let create ~unit_name ~formal_order =
  { table = Hashtbl.create 16; common_of = Hashtbl.create 4; formal_order; unit_name }

let add t name entry =
  if Hashtbl.mem t.table name then
    Diag.error "duplicate declaration of %s in %s" name t.unit_name;
  Hashtbl.replace t.table name entry

let find t name = Hashtbl.find_opt t.table name

let find_exn t name =
  match find t name with
  | Some e -> e
  | None -> Diag.error "undeclared identifier %s in %s" name t.unit_name

let is_array t name = match find t name with Some (Array _) -> true | _ -> false

let is_decomposition t name =
  match find t name with Some (Decomposition _) -> true | _ -> false

let array_info t name =
  match find t name with
  | Some (Array info) -> Some info
  | _ -> None

let param_value t name =
  match find t name with Some (Param v) -> Some v | _ -> None

let fold t f init = Hashtbl.fold f t.table init

let arrays t =
  fold t (fun name entry acc ->
      match entry with Array info -> (name, info) :: acc | _ -> acc) []
  |> List.sort compare

let set_common t name block =
  if Hashtbl.mem t.common_of name then
    Diag.error "%s appears in two COMMON blocks in %s" name t.unit_name;
  Hashtbl.replace t.common_of name block

let is_common t name = Hashtbl.mem t.common_of name

let commons t =
  Hashtbl.fold (fun name block acc -> (name, block) :: acc) t.common_of []
  |> List.sort compare

let rank t name =
  match find t name with
  | Some (Array { dims; _ }) -> List.length dims
  | Some (Decomposition dims) -> List.length dims
  | _ -> 0
