module Graph = Aig.Graph
module Bitvec = Logic.Bitvec

type config = {
  metric : Errest.Metrics.kind;
  threshold : float;
  eval_rounds : int;
  seed : int;
  max_iters : int;
  max_seconds : float;
}

let default_config ~metric ~threshold =
  {
    metric;
    threshold;
    eval_rounds = 4096;
    seed = 1;
    max_iters = 10_000;
    max_seconds = infinity;
  }

(* Similar-signal candidates kept per node. *)
let max_candidates_per_node = 4

type report = {
  input_ands : int;
  output_ands : int;
  applied : int;
  final_est_error : float;
  runtime_s : float;
}

type action = Sub_signal of int * bool (* source node, complemented *) | Sub_const of bool

(* Similar-signal candidates for node [v]: sources that precede it
   topologically (hence provably outside its TFO), ranked by signature
   hamming distance in either phase, plus the two constants. *)
let candidates_for g sim_sigs rounds v =
  let sig_v = sim_sigs.(v) in
  let scored = ref [] in
  for s = 1 to v - 1 do
    if Graph.is_pi g s || Graph.is_and g s then begin
      let h = Bitvec.hamming sig_v sim_sigs.(s) in
      let direct = (h, Sub_signal (s, false)) in
      let inverted = (rounds - h, Sub_signal (s, true)) in
      scored := direct :: inverted :: !scored
    end
  done;
  let ones = Bitvec.popcount sig_v in
  scored := (ones, Sub_const false) :: (rounds - ones, Sub_const true) :: !scored;
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) !scored in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | (_, act) :: rest -> act :: take (n - 1) rest
  in
  take max_candidates_per_node sorted

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
  let sim_rounds = 128 in
  (* SASIMI is "substitute and simplify": dead-logic removal plus light
     cleanup after every substitution, not a full resynthesis. *)
  let g = ref (Aig.Resyn.light original) in
  let applied = ref 0 in
  let finished = ref false in
  while
    (not !finished) && !applied < config.max_iters && Graph.num_ands !g > 0
    && Sys.time () -. t_start < config.max_seconds
  do
    (* Small simulation for similarity ranking; large one for error. *)
    let sim_pats = Sim.Patterns.random rng ~npis ~len:sim_rounds in
    let sim_sigs = Sim.Engine.simulate !g sim_pats in
    let base_sigs = Sim.Engine.simulate !g eval_pats in
    let batch = Errest.Batch.create !g ~metric:config.metric ~golden ~base:base_sigs in
    let fanouts = Aig.Topo.fanout_counts !g in
    let best = ref None in
    Graph.iter_ands !g (fun v ->
        if fanouts.(v) > 0 then begin
          let gain = List.length (Aig.Cone.mffc !g ~fanouts v) in
          List.iter
            (fun action ->
              let new_sig =
                match action with
                | Sub_const b ->
                    let vec = Bitvec.create (Bitvec.length base_sigs.(0)) in
                    if b then Bitvec.fill vec true;
                    vec
                | Sub_signal (s, compl) ->
                    if compl then Bitvec.lognot base_sigs.(s) else Bitvec.copy base_sigs.(s)
              in
              let err = Errest.Batch.candidate_error batch ~node:v ~new_sig in
              if err <= config.threshold then begin
                let better =
                  match !best with
                  | None -> true
                  | Some (e0, g0, _, _) -> err < e0 || (err = e0 && gain > g0)
                in
                if better then best := Some (err, gain, v, action)
              end)
            (candidates_for !g sim_sigs sim_rounds v)
        end);
    match !best with
    | None -> finished := true
    | Some (_, _, v, action) ->
        let replacement =
          match action with
          | Sub_const b -> Graph.Replace_lit (if b then Graph.const1 else Graph.const0)
          | Sub_signal (s, compl) -> Graph.Replace_lit (Graph.make_lit s compl)
        in
        let replaced =
          Graph.rebuild ~replace:(fun id -> if id = v then Some replacement else None) !g
        in
        let optimized = Aig.Resyn.light replaced in
        if Graph.num_ands optimized >= Graph.num_ands !g then finished := true
        else begin
          g := optimized;
          incr applied
        end
  done;
  let final_approx = Sim.Engine.simulate_pos !g eval_pats in
  let final_err = Errest.Metrics.measure config.metric ~golden ~approx:final_approx in
  ( !g,
    {
      input_ands = Graph.num_ands original;
      output_ands = Graph.num_ands !g;
      applied = !applied;
      final_est_error = final_err;
      runtime_s = Sys.time () -. t_start;
    } )
