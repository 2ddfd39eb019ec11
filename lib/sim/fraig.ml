module Graph = Aig.Graph
module Bitvec = Logic.Bitvec

(* Per-node PI support as bitsets over PI indices. *)
let supports g =
  let npis = Graph.num_pis g in
  let n = Graph.num_nodes g in
  let sup = Array.init n (fun _ -> Bitvec.create npis) in
  for i = 0 to npis - 1 do
    Bitvec.set sup.(Graph.pi_node g i) i true
  done;
  Graph.iter_ands g (fun id ->
      let s = sup.(id) in
      Bitvec.logor_inplace s sup.(Graph.node_of (Graph.fanin0 g id));
      Bitvec.logor_inplace s sup.(Graph.node_of (Graph.fanin1 g id)));
  sup

let sweep ?(max_support = 14) ?(rounds = 256) ?(seed = 1) g =
  let g = Graph.compact g in
  let npis = Graph.num_pis g in
  if npis = 0 then (g, 0)
  else begin
    let rng = Logic.Rng.create seed in
    let pats = Patterns.random rng ~npis ~len:rounds in
    let sigs = Engine.simulate g pats in
    let sup = supports g in
    (* Candidate classes keyed by the phase-canonical signature
       ([Bitvec.canon_hash]), hash collisions resolved by exact comparison
       against each class representative. *)
    let classes : (int, (Bitvec.t * int list ref) list ref) Hashtbl.t =
      Hashtbl.create 256
    in
    let classify id =
      let s = sigs.(id) in
      let h = Bitvec.canon_hash s in
      match Hashtbl.find_opt classes h with
      | None -> Hashtbl.add classes h (ref [ (s, ref [ id ]) ])
      | Some bucket -> (
          match List.find_opt (fun (rs, _) -> Bitvec.canon_equal s rs) !bucket with
          | Some (_, members) -> members := id :: !members
          | None -> bucket := (s, ref [ id ]) :: !bucket)
    in
    Graph.iter_ands g classify;
    (* Exact check: tabulate both nodes over the union of their supports. *)
    let support_list mask =
      let acc = ref [] in
      Bitvec.iter_set mask (fun i -> acc := Graph.pi_node g i :: !acc);
      List.rev !acc
    in
    let proved_equal a b =
      let union = Bitvec.logor sup.(a) sup.(b) in
      let k = Bitvec.popcount union in
      if k > max_support || k > Logic.Truth.max_vars then None
      else begin
        let leaves = Array.of_list (support_list union) in
        let ta = Aig.Cut.truth g ~root:a ~leaves in
        let tb = Aig.Cut.truth g ~root:b ~leaves in
        if Logic.Truth.equal ta tb then Some false
        else if Logic.Truth.equal ta (Logic.Truth.bnot tb) then Some true
        else None
      end
    in
    let replacements : (int, Graph.replacement) Hashtbl.t = Hashtbl.create 64 in
    let process_class members =
      match List.sort compare !members with
      | [] | [ _ ] -> ()
      | rep :: rest ->
          List.iter
            (fun id ->
              if not (Hashtbl.mem replacements id) then
                match proved_equal rep id with
                | Some inverted ->
                    Hashtbl.replace replacements id
                      (Graph.Replace_lit (Graph.make_lit rep inverted))
                | None -> ())
            rest
    in
    Hashtbl.iter
      (fun _ bucket -> List.iter (fun (_, members) -> process_class members) !bucket)
      classes;
    if Hashtbl.length replacements = 0 then (g, 0)
    else begin
      let merged = Graph.rebuild ~replace:(Hashtbl.find_opt replacements) g in
      if Graph.num_ands merged <= Graph.num_ands g then
        (merged, Hashtbl.length replacements)
      else (g, 0)
    end
  end

let run ?max_support ?rounds ?seed g = fst (sweep ?max_support ?rounds ?seed g)
