(** Su's method (reference [13] of the paper): SASIMI-style
    substitute-and-simplify driven by the same batch error estimator.

    Each LAC replaces a target node by another signal of the circuit (either
    phase) or by a constant — the single-input substitution the paper
    contrasts with multi-input resubstitution.  Candidates are ranked by
    signature similarity; every iteration scores them with
    {!Errest.Batch} and applies the best one under the threshold. *)

type config = {
  metric : Errest.Metrics.kind;
  threshold : float;
  eval_rounds : int;
  seed : int;
  max_iters : int;
  max_seconds : float;  (** wall-clock budget; [infinity] = unbounded *)
}
(** Fixed, not configurable: 4 similar-signal candidates per node, light
    resynthesis ({!Aig.Resyn.light}) after each substitution, and
    acceptance at error [<= threshold]. *)

val default_config : metric:Errest.Metrics.kind -> threshold:float -> config

type report = {
  input_ands : int;
  output_ands : int;
  applied : int;
  final_est_error : float;
  runtime_s : float;
}

val run : config:config -> Aig.Graph.t -> Aig.Graph.t * report
