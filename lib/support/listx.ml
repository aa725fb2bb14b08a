(* Small list utilities shared across the compiler. *)

let init_opt n f =
  let rec loop acc i =
    if i >= n then List.rev acc
    else loop (match f i with Some x -> x :: acc | None -> acc) (i + 1)
  in
  loop [] 0

let dedup ~equal xs =
  let rec loop acc = function
    | [] -> List.rev acc
    | x :: rest ->
      if List.exists (equal x) acc then loop acc rest else loop (x :: acc) rest
  in
  loop [] xs

let group_by ~key ~equal_key xs =
  (* Stable grouping: returns (key, members-in-order) in first-seen order. *)
  let rec add groups x =
    let k = key x in
    match groups with
    | [] -> [ (k, [ x ]) ]
    | (k', members) :: rest when equal_key k k' -> (k', x :: members) :: rest
    | g :: rest -> g :: add rest x
  in
  List.fold_left add [] xs |> List.map (fun (k, members) -> (k, List.rev members))

let rec assoc_update ~equal k f = function
  | [] -> [ (k, f None) ]
  | (k', v) :: rest when equal k k' -> (k', f (Some v)) :: rest
  | kv :: rest -> kv :: assoc_update ~equal k f rest

let all_some xs =
  if List.for_all Option.is_some xs then Some (List.map Option.get xs) else None

let sum = List.fold_left ( + ) 0

let take n xs =
  let rec loop acc n = function
    | [] -> List.rev acc
    | _ when n <= 0 -> List.rev acc
    | x :: rest -> loop (x :: acc) (n - 1) rest
  in
  loop [] n xs
