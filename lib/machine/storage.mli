(** Per-processor array storage, in pages.

    An array's row-major elements are cut into pages of 64 elements
    (the last one ends with the array).  A processor
    materializes a page on its first write, receive or remap copy into
    it; an untouched page reads zero, and is valid exactly where the
    processor owns the element, so a processor holds its own section and
    what it was sent, as a node program does, rather than the full
    extent.  Validity is tracked per element: an element is valid on a
    processor iff the processor owns it under the current layout, has
    written it, or has received it in a message.  In strict mode a read
    of an invalid element aborts the run — this catches compiler
    communication bugs even when stale values agree. *)

open Fd_frontend

type data = Fdata of float array | Idata of int array | Bdata of bool array
(** A full-extent copy of an array's values ({!data}). *)

type ownership
(** Which elements the processor owns, by {!Layout.owned_pattern}
    arithmetic on the distributed dimension. *)

val page_bits : int
val page_len : int
(** Pages hold [page_len = 2^page_bits] elements: flat index [i] is at
    offset [i land (page_len - 1)] of page [i lsr page_bits]. *)

type array_obj = private {
  name : string;
  elt : Ast.dtype;
  bounds : (int * int) array;
  strides : int array;
  size : int;
  fpages : float array array;
      (** the page table of a REAL array ([[||]] where untouched); empty
          for other types *)
  ipages : int array array;  (** of an INTEGER array *)
  bpages : bool array array;  (** of a LOGICAL array *)
  valid_pages : Bytes.t array;  (** [Bytes.empty] where untouched *)
  mutable layout : Layout.t;
  mutable own : ownership;
  owner_proc : int;  (** which processor's memory this lives in *)
  nprocs : int;
  stats : Stats.t;  (** counts materialized page bytes *)
}

exception Invalid_read of { array : string; index : int array; proc : int }

exception Runtime_error of string
(** The machine layer's one run-time fault of a running program: a
    subscript out of bounds or of the wrong rank, integer division or
    [mod] by zero, a zero DO step, a bad section step or [tab$] index,
    a message peer outside [0..P-1].  The scheduler reports it as
    [Scheduler.Runtime_error]; escaping the sequential interpreter, it
    exits 3 like a simulation failure. *)

val runtime_error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Runtime_error} with a formatted message. *)

val alloc :
  stats:Stats.t -> proc:int -> nprocs:int -> string -> Ast.dtype -> Layout.t -> array_obj
(** Storage with no page materialized: it reads zero, and its owned
    elements are valid.  Each page materialized later adds its element
    and validity bytes to [stats]' [storage_bytes]. *)

val rank : array_obj -> int

val flat_index : array_obj -> int array -> int
(** @raise Runtime_error on rank or bounds violations. *)

val index1 : array_obj -> int -> int
val index2 : array_obj -> int -> int -> int
val index3 : array_obj -> int -> int -> int -> int
(** {!flat_index} for rank 1..3 without an index array: the same checks
    in the same order, with the same errors. *)

val check_subscript : array_obj -> int -> int -> unit
(** [check_subscript obj d x] bounds-checks subscript [x] of 0-based
    dimension [d], with {!flat_index}'s message. *)

val rank_error : array_obj -> int -> 'a
(** [rank_error obj n] raises {!flat_index}'s error for [n]
    subscripts. *)

val index_of : array_obj -> int -> int array
(** The subscripts of an in-bounds flat index. *)

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

val copy_range : src:array_obj -> dst:array_obj -> int -> int -> unit
(** [copy_range ~src ~dst flat len] copies the elements at flat indices
    [flat .. flat + len - 1] between two processors' copies of an array,
    typed and page by page, and validates them in [dst].
    @raise Invalid_argument when the range is outside either array. *)

val set_layout : array_obj -> Layout.t -> unit
(** Switch layouts; validity resets to ownership under the new layout
    (a moving remap then copies the moved elements in).  Values stay, and
    only materialized pages are touched. *)

val data : array_obj -> data
(** The values at full extent, zeros where no page was materialized. *)

val valid : array_obj -> Bytes.t
(** The validity bytes at full extent (['\001'] valid, ['\000'] not). *)

val iter_elements : array_obj -> (int array -> int -> unit) -> unit
(** Visit every (index vector, flat index) pair in row-major order.  The
    index vector is one array updated in place: copy it to keep it. *)
