(** Token- and statement-level mutators over mini-Fortran-D source.

    Token-level mutations edit inside one line (delete/duplicate/swap a
    token, corrupt an identifier, unbalance parentheses) and mostly
    produce lexically or syntactically ill-formed programs; the
    statement-level tier edits whole lines (delete/duplicate/swap/
    truncate, rename one identifier occurrence, add a subscript) and
    reaches semantic errors — or stays well-formed, which is the point:
    the differential harness must be total either way.

    All randomness comes from the caller's [Random.State.t], so one seed
    reproduces byte-identical mutants. *)

val mutate : Random.State.t -> ?n:int -> string -> string
(** Apply [n] (default 1) randomly chosen mutations.  Inapplicable
    picks are retried a bounded number of times; the result may carry
    fewer than [n] mutations on tiny inputs. *)
