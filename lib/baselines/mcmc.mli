(** Liu & Zhang's statistically certified stochastic ALS (reference [5]):
    Markov-chain Monte-Carlo search over local circuit mutations.

    Proposals draw a random node and replace it with a constant or an
    earlier signal; a proposal is feasible when its sampled error respects
    the threshold, and feasible proposals are accepted by the Metropolis
    rule on the AND-count cost.  The best feasible circuit seen is returned
    after a final certification measurement on the evaluation sample. *)

type config = {
  metric : Errest.Metrics.kind;
  threshold : float;
  eval_rounds : int;
  proposals : int;  (** MCMC chain length *)
  seed : int;
}
(** Fixed, not configurable: Metropolis temperature 2.0 on the AND-count
    cost, and acceptance at error [<= threshold]. *)

val default_config : metric:Errest.Metrics.kind -> threshold:float -> config

type report = {
  input_ands : int;
  output_ands : int;
  accepted : int;
  proposals_tried : int;
  final_est_error : float;
  runtime_s : float;
}

val run : config:config -> Aig.Graph.t -> Aig.Graph.t * report
