(* A small metrics registry: named integer counters, float gauges, and
   fixed-bucket histograms, serialized through Fd_support.Json.  One
   registry describes one run; Fd_machine.Stats converts itself into a
   registry so simulator statistics, trace-derived distributions, and
   ad-hoc tool counters share one serialization. *)

type counter = { mutable c_value : int }

type gauge = { mutable g_value : float }

type histogram = {
  h_bounds : float array;   (* upper bucket bounds, ascending; last = +inf *)
  h_counts : int array;     (* length = Array.length h_bounds + 1 *)
  mutable h_sum : float;
  mutable h_count : int;
  mutable h_min : float;
  mutable h_max : float;
}

type item = Counter of counter | Gauge of gauge | Histogram of histogram

type t = {
  tbl : (string, item) Hashtbl.t;
  mutable order : string list;  (* registration order, reversed *)
}

let create () = { tbl = Hashtbl.create 32; order = [] }

let register t name item =
  if Hashtbl.mem t.tbl name then
    invalid_arg (Fmt.str "Metrics: %s registered twice" name);
  Hashtbl.replace t.tbl name item;
  t.order <- name :: t.order

let counter t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Counter c) -> c
  | Some _ -> invalid_arg (Fmt.str "Metrics: %s is not a counter" name)
  | None ->
    let c = { c_value = 0 } in
    register t name (Counter c);
    c

let gauge t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Gauge g) -> g
  | Some _ -> invalid_arg (Fmt.str "Metrics: %s is not a gauge" name)
  | None ->
    let g = { g_value = 0.0 } in
    register t name (Gauge g);
    g

let histogram t name ~bounds =
  match Hashtbl.find_opt t.tbl name with
  | Some (Histogram h) -> h
  | Some _ -> invalid_arg (Fmt.str "Metrics: %s is not a histogram" name)
  | None ->
    let bounds = Array.copy bounds in
    Array.sort compare bounds;
    let h =
      { h_bounds = bounds;
        h_counts = Array.make (Array.length bounds + 1) 0; h_sum = 0.0;
        h_count = 0; h_min = infinity; h_max = neg_infinity }
    in
    register t name (Histogram h);
    h

let incr ?(by = 1) c = c.c_value <- c.c_value + by
let set_counter c v = c.c_value <- v
let set g v = g.g_value <- v

let observe h v =
  let n = Array.length h.h_bounds in
  let rec bucket i = if i >= n || v <= h.h_bounds.(i) then i else bucket (i + 1) in
  let b = bucket 0 in
  h.h_counts.(b) <- h.h_counts.(b) + 1;
  h.h_sum <- h.h_sum +. v;
  h.h_count <- h.h_count + 1;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v

let mean h = if h.h_count = 0 then 0.0 else h.h_sum /. float_of_int h.h_count

let items t =
  List.rev_map (fun name -> (name, Hashtbl.find t.tbl name)) t.order

let find t name = Hashtbl.find_opt t.tbl name

let histogram_json h : Fd_support.Json.t =
  let open Fd_support.Json in
  Obj
    [ ("type", Str "histogram");
      ("count", Int h.h_count);
      ("sum", Float h.h_sum);
      ("mean", Float (mean h));
      ("min", Float (if h.h_count = 0 then 0.0 else h.h_min));
      ("max", Float (if h.h_count = 0 then 0.0 else h.h_max));
      ( "buckets",
        List
          (Array.to_list
             (Array.mapi
                (fun i n ->
                  let le =
                    if i < Array.length h.h_bounds then Float h.h_bounds.(i)
                    else Str "inf"
                  in
                  Obj [ ("le", le); ("count", Int n) ])
                h.h_counts)) ) ]

let to_json t : Fd_support.Json.t =
  let open Fd_support.Json in
  Obj
    (List.map
       (fun (name, item) ->
         ( name,
           match item with
           | Counter c -> Int c.c_value
           | Gauge g -> Float g.g_value
           | Histogram h -> histogram_json h ))
       (items t))
