(** Per-processor array storage.

    Every processor allocates the full global extent of each array
    (memory is cheap in simulation) but tracks per-element *validity*:
    an element is valid on a processor iff the processor owns it under
    the current layout, has written it, or has received it in a message.
    In strict mode a read of an invalid element aborts the run — this
    catches compiler communication bugs even when stale values agree. *)

open Fd_support
open Fd_frontend

type data = Fdata of float array | Idata of int array | Bdata of bool array

type array_obj = {
  name : string;
  elt : Ast.dtype;
  bounds : (int * int) array;
  strides : int array;
  size : int;
  data : data;
  valid : Bytes.t;
  mutable layout : Layout.t;
  mutable owned : Iset.t;  (** this processor's owned set, dist dim *)
  owner_proc : int;        (** which processor's memory this lives in *)
}

exception Invalid_read of { array : string; index : int array; proc : int }

val alloc :
  proc:int -> nprocs:int -> string -> Ast.dtype -> Layout.t -> array_obj
(** Zero-filled storage whose owned elements are valid. *)

val rank : array_obj -> int

val flat_index : array_obj -> int array -> int
(** @raise Fd_support.Diag.Compile_error on rank or bounds violations. *)

val index1 : array_obj -> int -> int
val index2 : array_obj -> int -> int -> int
val index3 : array_obj -> int -> int -> int -> int
(** {!flat_index} for rank 1..3 without an index array: the same checks
    in the same order, with the same errors. *)

val check_subscript : array_obj -> int -> int -> unit
(** [check_subscript obj d x] bounds-checks subscript [x] of 0-based
    dimension [d], with {!flat_index}'s message. *)

val mark_initial_validity : array_obj -> unit
(** Mark the owned elements valid; one [Bytes.fill] per owned interval
    and combination of the other dimensions' indices. *)

val get_raw : array_obj -> int -> Value.t

val read_flat : strict:bool -> array_obj -> int -> Value.t
(** The element at a flat index.
    @raise Invalid_read in strict mode on invalid elements. *)

val read_int : strict:bool -> array_obj -> int -> int
val read_float : strict:bool -> array_obj -> int -> float
(** [read_flat] of an INTEGER or a REAL array, unboxed.
    @raise Fd_support.Diag.Internal_error on an array of another type. *)

val read : strict:bool -> array_obj -> int array -> Value.t
(** [read_flat] at [flat_index]. *)

val write_flat : array_obj -> int -> Value.t -> unit
(** Stores and validates. *)

val write_int : array_obj -> int -> int -> unit
val write_float : array_obj -> int -> float -> unit
(** [write_flat] of a [Vint] or a [Vreal], unboxed, converting to the
    array's element type. *)

val write : array_obj -> int array -> Value.t -> unit
(** [write_flat] at [flat_index]. *)

val receive : array_obj -> int array -> Value.t -> unit
(** Store an incoming message element (validates it). *)

val copy_flat : src:array_obj -> dst:array_obj -> int -> unit
(** Copy one element between two processors' copies of an array, at the
    same flat index, unboxed; validates it in [dst]. *)

val set_layout : nprocs:int -> array_obj -> Layout.t -> unit
(** Switch layouts; validity resets to ownership under the new layout
    (a moving remap then copies the moved elements in). *)

val iter_elements : array_obj -> (int array -> int -> unit) -> unit
(** Visit every (index vector, flat index) pair in row-major order.  The
    index vector is one array updated in place: copy it to keep it. *)
