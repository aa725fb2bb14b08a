(* Source locations for the mini-Fortran-D frontend. *)

type t = { file : string; line : int; col : int }

let none = { file = "<none>"; line = 0; col = 0 }

let make ~file ~line ~col = { file; line; col }

let pp ppf { file; line; col } = Fmt.pf ppf "%s:%d:%d" file line col
