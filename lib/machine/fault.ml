(* Deterministic, seed-driven fault plans.  All randomness is a pure
   hash of (seed, src, dest, tag, seq, purpose): the schedule does not
   depend on event-processing order, so identical seeds reproduce
   identical fault schedules and identical Stats. *)

type t = {
  seed : int;
  drop : float;
  dup : float;
  delay : float;
  reorder : float;
  slowdown : (int * float) list;
  rto : float;
  backoff : float;
  max_retries : int;
  watchdog : float option;
  tags : int list option;
}

let make ?(drop = 0.0) ?(dup = 0.0) ?(delay = 0.0) ?(reorder = 0.0)
    ?(slowdown = []) ?(rto = 500e-6) ?(backoff = 2.0) ?(max_retries = 8)
    ?watchdog ?tags ~seed () =
  if drop < 0.0 || drop > 1.0 then Fd_support.Diag.error "fault plan: drop not in [0,1]";
  if dup < 0.0 || dup > 1.0 then Fd_support.Diag.error "fault plan: dup not in [0,1]";
  if reorder < 0.0 || reorder > 1.0 then
    Fd_support.Diag.error "fault plan: reorder not in [0,1]";
  if delay < 0.0 then Fd_support.Diag.error "fault plan: negative delay";
  if rto <= 0.0 then Fd_support.Diag.error "fault plan: rto must be positive";
  if backoff < 1.0 then Fd_support.Diag.error "fault plan: backoff must be >= 1";
  if max_retries < 0 then Fd_support.Diag.error "fault plan: negative max_retries";
  { seed; drop; dup; delay; reorder; slowdown; rto; backoff; max_retries;
    watchdog; tags }

let selects t ~tag = match t.tags with None -> true | Some tags -> List.mem tag tags

let slowdown_for t p =
  match List.assoc_opt p t.slowdown with Some f -> f | None -> 1.0

(* --- splitmix64-style hashing ------------------------------------------ *)

let golden = 0x9e3779b97f4a7c15L

let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

(* A stream is a mixed digest of the seed and the message key; draws are
   indexed, so every (purpose, index) pair is an independent uniform. *)
let stream seed components =
  List.fold_left
    (fun s c -> mix64 Int64.(add (logxor s (of_int c)) golden))
    (mix64 (Int64.add (Int64.of_int seed) golden))
    components

let draw st n = mix64 Int64.(add st (mul golden (of_int (n + 1))))

(* 53 uniform bits -> [0, 1) *)
let to01 z = Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.0

let uniform st n = to01 (draw st n)

(* purpose salts keep the drop / dup / delay / reorder streams disjoint *)
let salt_drop = 1
let salt_dup = 2
let salt_delay = 3
let salt_reorder = 4

type delivery = {
  attempts : int;
  lost : bool;
  added_delay : float;
  duplicated : bool;
  injected : int;
}

let clean = { attempts = 1; lost = false; added_delay = 0.0; duplicated = false;
              injected = 0 }

let deliver t ~msg_cost ~src ~dest ~tag ~seq =
  if not (selects t ~tag) then clean
  else begin
    let key purpose = stream t.seed [ src; dest; tag; seq; purpose ] in
    let injected = ref 0 in
    (* Ack/retransmit: attempt i goes out rto * backoff^(i-1) after
       attempt i-1; the first surviving attempt delivers. *)
    let max_attempts = t.max_retries + 1 in
    let drops = key salt_drop in
    let rec attempt i timeout_sum =
      if i > max_attempts then (max_attempts, true, 0.0)
      else if t.drop > 0.0 && uniform drops i < t.drop then begin
        incr injected;
        attempt (i + 1) (timeout_sum +. (t.rto *. (t.backoff ** float_of_int (i - 1))))
      end
      else (i, false, timeout_sum)
    in
    let attempts, lost, retry_delay = attempt 1 0.0 in
    if lost then
      { attempts; lost = true; added_delay = 0.0; duplicated = false;
        injected = !injected }
    else begin
      let jitter =
        if t.delay > 0.0 then begin
          incr injected;
          uniform (key salt_delay) 0 *. t.delay
        end
        else 0.0
      in
      let reorder_pen =
        if t.reorder > 0.0 && uniform (key salt_reorder) 0 < t.reorder then begin
          incr injected;
          msg_cost
        end
        else 0.0
      in
      let duplicated =
        t.dup > 0.0 && uniform (key salt_dup) 0 < t.dup
      in
      if duplicated then incr injected;
      { attempts; lost = false;
        added_delay = retry_delay +. jitter +. reorder_pen;
        duplicated; injected = !injected }
    end
  end
