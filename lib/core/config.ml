type resyn_level = No_resyn | Light | Compress2

type policy = Greedy

type t = {
  metric : Errest.Metrics.kind;
  threshold : float;
  sim_rounds : int;
  lac_limit : int;
  patience : int;
  scale : float;
  min_rounds : int;
  eval_rounds : int;
  max_tfi_divisors : int;
  seed : int;
  resyn : resyn_level;
  max_iters : int;
  margin : float;
  max_seconds : float;
  distr : Errest.Distr.t;
  input_probs : float array option;
  max_depth_growth : float;
  use_odc : bool;
  guard : bool;
  guard_tol : float;
  confidence : float;
  certify_exact : bool;
  exact_resub : bool;
  fault : Fault.plan;
  jobs : int;
  policy : policy;
}

let default ~metric ~threshold =
  {
    metric;
    threshold;
    sim_rounds = 32;
    lac_limit = 1;
    patience = 5;
    scale = 0.9;
    min_rounds = 4;
    eval_rounds = 4096;
    max_tfi_divisors = 5000;
    seed = 1;
    resyn = Compress2;
    max_iters = 10_000;
    margin = 1.0;
    max_seconds = infinity;
    distr = Errest.Distr.Unif;
    input_probs = None;
    max_depth_growth = 1.3;
    use_odc = false;
    guard = true;
    guard_tol = 1e-9;
    confidence = 0.999;
    certify_exact = false;
    exact_resub = false;
    fault = Fault.none;
    jobs = 1;
    policy = Greedy;
  }
