(** Remap planning for the scheduler's collective sites: the global data
    movement of a dynamic redistribution and the summary its time and
    statistics accounting consumes. *)

type remap_summary = {
  rs_array : string;
  rs_total_bytes : int;
  rs_sent : int array;       (** per-processor bytes sent *)
  rs_received : int array;   (** per-processor bytes received *)
  rs_npairs : int array;     (** per-processor partner-pair count *)
  rs_pairs : ((int * int) * int) list;  (** sorted ((src, dest), bytes) *)
  rs_mark_only : bool;
}

val plan_remap :
  nprocs:int -> word_bytes:int ->
  objs:Storage.array_obj option array ->
  obj0:Storage.array_obj ->
  new_layout:Layout.t -> move:bool -> remap_summary
(** Perform a redistribution's global data movement (switch every
    processor's layout, then copy each element from its old owner to the
    processors that hold it only under the new layout) and return the
    summary the scheduler's accounting consumes.  Owners come from layout
    arithmetic: O(elements + P) besides the copies.  [objs] must hold
    every processor's copy; [obj0] is processor 0's. *)
