(* Generic iterative dataflow over {!Cfg}, worklist-driven.

   Facts form a join-semilattice; [solve] computes the maximal fixed point
   for a forward or backward problem and returns per-node input and output
   facts (input = fact at node entry for forward problems, at node exit
   for backward problems). *)

type direction = Forward | Backward

module type LATTICE = sig
  type t

  val bottom : t
  val join : t -> t -> t
  val equal : t -> t -> bool
end

module Make (L : LATTICE) = struct
  type result = { input : L.t array; output : L.t array }

  let solve ~direction ~(init : L.t) ~(transfer : int -> Cfg.node -> L.t -> L.t)
      (cfg : Cfg.t) : result =
    let n = Cfg.length cfg in
    let input = Array.make n L.bottom in
    let output = Array.make n L.bottom in
    let flow_in, start_node =
      match direction with
      | Forward -> (Cfg.preds cfg, Cfg.entry)
      | Backward -> (Cfg.succs cfg, Cfg.exit_)
    in
    let flow_out =
      match direction with Forward -> Cfg.succs cfg | Backward -> Cfg.preds cfg
    in
    input.(start_node) <- init;
    output.(start_node) <- transfer start_node (Cfg.node cfg start_node) init;
    let worklist = Queue.create () in
    for i = 0 to n - 1 do
      Queue.add i worklist
    done;
    while not (Queue.is_empty worklist) do
      let i = Queue.pop worklist in
      let in_fact =
        let base = if i = start_node then init else L.bottom in
        List.fold_left (fun acc p -> L.join acc output.(p)) base (flow_in i)
      in
      let out_fact = transfer i (Cfg.node cfg i) in_fact in
      input.(i) <- in_fact;
      if not (L.equal out_fact output.(i)) then begin
        output.(i) <- out_fact;
        List.iter (fun s -> Queue.add s worklist) (flow_out i)
      end
    done;
    { input; output }
end
