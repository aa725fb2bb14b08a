(* Resource budgets with graceful degradation.

   A budget caps abstract work (steps), communication events, and wall
   time for one run of the simulator or verifier.  Consumers call the
   [tick_*] functions from their hot loops; when a limit trips, the
   budget latches an exhaustion reason and the consumer degrades to a
   *partial* result (stats so far, an Info "unverified" finding) rather
   than aborting.

   Wall time is only sampled every [wall_stride] steps/events so a
   budgeted hot loop stays a couple of integer ops in the common
   case. *)

type t = {
  steps : int option;  (* abstract work units (sim ticks / absint ops) *)
  events : int option;  (* communication events (messages / emissions) *)
  wall : float option;  (* seconds of real time *)
}

let make ?steps ?events ?wall () = { steps; events; wall }

type state = {
  limits : t;
  mutable steps_used : int;
  mutable events_used : int;
  mutable deadline : float option;  (* absolute, from Unix.gettimeofday *)
  mutable spent : string option;  (* latched exhaustion reason *)
  mutable wall_countdown : int;
}

let wall_stride = 1024

let start limits =
  {
    limits;
    steps_used = 0;
    events_used = 0;
    deadline =
      (match limits.wall with
      | Some s -> Some (Unix.gettimeofday () +. s)
      | None -> None);
    spent = None;
    wall_countdown = wall_stride;
  }

let exhausted st = st.spent

let trip st reason = if st.spent = None then st.spent <- Some reason

let check_wall st =
  match st.deadline with
  | Some d when Unix.gettimeofday () > d ->
    trip st
      (Fmt.str "wall budget exhausted (%.3gs)"
         (Option.value ~default:0. st.limits.wall))
  | _ -> ()

let maybe_check_wall st =
  if st.deadline <> None then begin
    st.wall_countdown <- st.wall_countdown - 1;
    if st.wall_countdown <= 0 then begin
      st.wall_countdown <- wall_stride;
      check_wall st
    end
  end

(* [tick_step st n]: charge [n] abstract work units; returns [true]
   while the budget still has headroom. *)
let tick_step st n =
  st.steps_used <- st.steps_used + n;
  (match st.limits.steps with
  | Some cap when st.steps_used > cap ->
    trip st (Fmt.str "step budget exhausted (%d)" cap)
  | _ -> ());
  maybe_check_wall st;
  st.spent = None

let tick_event st n =
  st.events_used <- st.events_used + n;
  (match st.limits.events with
  | Some cap when st.events_used > cap ->
    trip st (Fmt.str "event budget exhausted (%d)" cap)
  | _ -> ());
  maybe_check_wall st;
  st.spent = None
