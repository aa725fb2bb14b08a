(** LINPACK dgefa (LU factorization with partial pivoting) in
    mini-Fortran D, with its BLAS-1 call structure intact (idamax /
    swaprow / getpiv / dscal / daxpy) — the paper's Section 9 case
    study, column-cyclic distributed. *)

val source : ?n:int -> unit -> string

val reference_lu : int -> float array array * int array
(** Native OCaml LU with partial pivoting over the same initial matrix:
    (factored matrix, pivot vector), for independent answer checking. *)
