(* Generic iterative dataflow over {!Cfg}, worklist-driven.

   Facts form a join-semilattice; [solve] computes the least fixed point
   above bottom for a forward or backward problem and returns per-node
   input and output facts (input = fact at node entry for forward
   problems, at node exit for backward problems).

   The worklist is ordered: it visits the pending node first in flow
   order, and a node is pending at most once.  [Cfg] numbers statements
   in program order, so flow order is index order with the exit node
   last (reversed for backward problems), and only a loop's back edge
   runs against it.  A predecessor fact physically equal to the
   accumulated one is not joined (join is idempotent), the first one is
   taken as it is (bottom is join's identity), and an output physically
   equal to the old one is not compared. *)

type direction = Forward | Backward

type work = { mutable nodes : int; mutable visits : int }

let new_work () = { nodes = 0; visits = 0 }

module type LATTICE = sig
  type t

  val bottom : t
  val join : t -> t -> t
  val equal : t -> t -> bool
end

module Agree (M : Map.S) (V : sig
  type t

  val equal : t -> t -> bool
end) =
struct
  type t = V.t M.t option

  let bottom = None

  let join a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some m1, Some m2 ->
      Some (M.merge (fun _ x y -> match (x, y) with Some v, Some w when V.equal v w -> x | _ -> None) m1 m2)

  let equal = Option.equal (M.equal V.equal)
end

module Make (L : LATTICE) = struct
  type result = { input : L.t array; output : L.t array; visits : int }

  let solve ~direction ~(init : L.t) ~(transfer : int -> Cfg.node -> L.t -> L.t)
      (cfg : Cfg.t) : result =
    let n = Cfg.length cfg in
    let input = Array.make n L.bottom in
    let output = Array.make n L.bottom in
    let flow_in, flow_out, start =
      match direction with
      | Forward -> (Cfg.preds cfg, Cfg.succs cfg, Cfg.entry)
      | Backward -> (Cfg.succs cfg, Cfg.preds cfg, Cfg.exit_)
    in
    (* the flow position of node [i]; [order] inverts it *)
    let position i =
      match direction with
      | Forward -> if i = Cfg.exit_ then n - 1 else max 0 (i - 1)
      | Backward -> if i = Cfg.exit_ then 0 else if i = Cfg.entry then n - 1 else n - i
    in
    let order = Array.make n 0 in
    for i = 0 to n - 1 do
      order.(position i) <- i
    done;
    let rec gather acc = function
      | [] -> acc
      | p :: ps ->
        let o = output.(p) in
        gather (if o == acc then acc else L.join acc o) ps
    in
    let pending = Array.make n true in
    let visits = ref 0 in
    let k = ref 0 in
    while !k < n do
      if not pending.(!k) then incr k
      else begin
        pending.(!k) <- false;
        let i = order.(!k) in
        let in_fact =
          if i = start then gather init (flow_in i)
          else match flow_in i with [] -> L.bottom | p :: ps -> gather output.(p) ps
        in
        let out_fact = transfer i (Cfg.node cfg i) in_fact in
        incr visits;
        input.(i) <- in_fact;
        let old = output.(i) in
        if out_fact == old || L.equal out_fact old then incr k
        else begin
          output.(i) <- out_fact;
          let next = ref (!k + 1) in
          List.iter
            (fun s ->
              let ks = position s in
              pending.(ks) <- true;
              if ks < !next then next := ks)
            (flow_out i);
          k := !next
        end
      end
    done;
    { input; output; visits = !visits }

  let count (w : work) (r : result) =
    w.nodes <- w.nodes + Array.length r.input;
    w.visits <- w.visits + r.visits
end
