(** Minimal JSON document model and printer (no parsing).  Used for the
    machine-readable outputs of [fdc run --json], [fdc passes --json] and
    {!Fd_machine.Stats.to_json}: one canonical serialization path, no
    external dependencies. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering (no insignificant whitespace beyond single spaces).
    Non-finite floats render as [null] — JSON has no representation for
    them. *)
