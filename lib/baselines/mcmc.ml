module Graph = Aig.Graph
module Bitvec = Logic.Bitvec

type config = {
  metric : Errest.Metrics.kind;
  threshold : float;
  eval_rounds : int;
  proposals : int;
  seed : int;
}

let default_config ~metric ~threshold =
  {
    metric;
    threshold;
    eval_rounds = 4096;
    proposals = 2000;
    seed = 1;
  }

(* Metropolis temperature on the AND-count cost. *)
let temperature = 2.0

type report = {
  input_ands : int;
  output_ands : int;
  accepted : int;
  proposals_tried : int;
  final_est_error : float;
  runtime_s : float;
}

let run ~config g0 =
  let t_start = Sys.time () in
  let rng = Logic.Rng.create config.seed in
  let original = Graph.compact g0 in
  let npis = Graph.num_pis original in
  let eval_pats =
    if Sim.Patterns.fits_exhaustive ~npis ~rounds:config.eval_rounds then
      Sim.Patterns.exhaustive ~npis
    else Sim.Patterns.random (Logic.Rng.split rng) ~npis ~len:config.eval_rounds
  in
  let golden = Sim.Engine.simulate_pos original eval_pats in
  let g = ref (Aig.Resyn.compress2 original) in
  let best = ref !g in
  let accepted = ref 0 in
  let tried = ref 0 in
  (* Cached state of the current chain element. *)
  let base_sigs = ref (Sim.Engine.simulate !g eval_pats) in
  let batch =
    ref (Errest.Batch.create !g ~metric:config.metric ~golden ~base:!base_sigs)
  in
  let and_nodes graph =
    let acc = ref [] in
    Graph.iter_ands graph (fun id -> acc := id :: !acc);
    Array.of_list !acc
  in
  let nodes = ref (and_nodes !g) in
  while !tried < config.proposals && Array.length !nodes > 0 do
    incr tried;
    let v = !nodes.(Logic.Rng.int rng (Array.length !nodes)) in
    let action = Logic.Rng.int rng 10 in
    let replacement_lit, new_sig =
      if action < 2 then begin
        let b = Logic.Rng.bool rng in
        let vec = Bitvec.create (Bitvec.length !base_sigs.(0)) in
        if b then Bitvec.fill vec true;
        ((if b then Graph.const1 else Graph.const0), vec)
      end
      else begin
        (* Earlier signal, random phase: provably acyclic. *)
        let s = 1 + Logic.Rng.int rng (max 1 (v - 1)) in
        let compl = Logic.Rng.bool rng in
        let base = !base_sigs.(s) in
        (Graph.make_lit s compl, if compl then Bitvec.lognot base else Bitvec.copy base)
      end
    in
    let err = Errest.Batch.candidate_error !batch ~node:v ~new_sig in
    if err <= config.threshold then begin
      let candidate =
        Graph.rebuild
          ~replace:(fun id ->
            if id = v then Some (Graph.Replace_lit replacement_lit) else None)
          !g
      in
      let candidate = Graph.compact candidate in
      let delta = Graph.num_ands candidate - Graph.num_ands !g in
      let accept =
        delta <= 0
        || Logic.Rng.float rng < exp (-.float_of_int delta /. temperature)
      in
      if accept then begin
        g := candidate;
        incr accepted;
        base_sigs := Sim.Engine.simulate !g eval_pats;
        batch := Errest.Batch.create !g ~metric:config.metric ~golden ~base:!base_sigs;
        nodes := and_nodes !g;
        if Graph.num_ands !g < Graph.num_ands !best then best := !g
      end
    end
  done;
  (* Final clean-up and certification on the evaluation sample. *)
  let final = Aig.Resyn.compress2 !best in
  let final_approx = Sim.Engine.simulate_pos final eval_pats in
  let final_err = Errest.Metrics.measure config.metric ~golden ~approx:final_approx in
  ( final,
    {
      input_ands = Graph.num_ands original;
      output_ands = Graph.num_ands final;
      accepted = !accepted;
      proposals_tried = !tried;
      final_est_error = final_err;
      runtime_s = Sys.time () -. t_start;
    } )
