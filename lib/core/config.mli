(** ALSRAC flow parameters (Algorithm 3 inputs plus engineering knobs). *)

type resyn_level = No_resyn | Light | Compress2

type policy = Greedy
(** Candidate order: smallest induced error first, ties broken by
    estimated gain (Algorithm 3, line 6) — the flow's only order.  Journal
    manifests record it as [policy greedy]. *)

type t = {
  metric : Errest.Metrics.kind;  (** error metric of the constraint *)
  threshold : float;  (** error threshold [E_t] *)
  sim_rounds : int;  (** initial simulation round [N] (paper: 32) *)
  lac_limit : int;  (** per-node LAC limit [L] (paper: 1) *)
  patience : int;  (** controlling parameter [t] (paper: 5) *)
  scale : float;  (** scaling factor [r] (paper: 0.9) *)
  min_rounds : int;  (** lower bound on [N] when shrinking *)
  eval_rounds : int;  (** Monte-Carlo sample for LAC error estimation *)
  max_tfi_divisors : int;  (** cap on TFI nodes scanned per target node *)
  seed : int;  (** PRNG seed: fixes the whole run *)
  resyn : resyn_level;  (** Algorithm 3 line 9 optimization strength *)
  max_iters : int;  (** safety cap on accepted LACs *)
  margin : float;  (** accept LACs with error <= margin * threshold *)
  max_seconds : float;  (** wall-clock budget; [infinity] = unbounded *)
  distr : Errest.Distr.t;
      (** input distribution of the error measurement (ResubALS
          [--distrType]): [Unif] samples/enumerates uniformly; [Enum]
          scores candidates on weight-sampled care patterns and evaluates
          the final error {e exactly} over the enumerated support with
          per-round weights.  Orthogonal to [input_probs], which only
          biases care-set sampling for the approximate care set. *)
  input_probs : float array option;
      (** per-PI one-probabilities (Section III-A's user-specified input
          distribution); [None] = uniform *)
  max_depth_growth : float;
      (** reject LACs that leave the circuit deeper than this factor times
          the original depth (the paper's results implicitly preserve
          delay); [infinity] disables the guard *)
  use_odc : bool;
      (** ODC-aware care sets: mask out care-simulation rounds on which the
          target's value is (heuristically) unobservable at the outputs — an
          extension beyond the paper, benched as an ablation *)
  guard : bool;
      (** guarded transforms: after every accepted LAC (and the final resyn
          pass), re-check structural invariants and probe the measured error
          against the prediction; on violation roll back to the last good
          graph and quarantine the target instead of keeping a poisoned
          circuit.  Default on. *)
  guard_tol : float;
      (** absolute slack allowed between the predicted candidate error and
          the re-measured error before the guard trips (exact transforms
          should agree bit-for-bit; this only absorbs float-summation
          noise) *)
  confidence : float;
      (** confidence for the Hoeffding-certified upper bound on the final
          sampled error (reported only for [0,1]-bounded mean metrics,
          {!Errest.Metrics.bounded_mean}; max metrics get an exact miter
          certificate instead — see {!Errest.Certify} and
          {!Errest.Maxerr}) *)
  certify_exact : bool;
      (** machine-checked verification of the run's trust assumptions
          (default off): every exact-transform application (inter-iteration
          resyn, the final hand-off) is miter-checked with [Verify.Cec], and
          every accepted LAC's predicted error is cross-checked against an
          independent re-simulation.  Verdicts are recorded in the flow
          report; the checks are observational and never change the result
          circuit. *)
  exact_resub : bool;
      (** append the simulation-guided exact resubstitution pass
          ({!Resub_exact}) to every [Compress2] inter-iteration optimization
          and the final hand-off.  Exact: each committed resubstitution is
          CEC-proven, so the flow's error accounting is untouched.  Default
          off. *)
  fault : Fault.plan;
      (** deterministic fault injection for resilience tests; {!Fault.none}
          (the default) disables every hook *)
  jobs : int;
      (** worker-pool size for simulation and candidate scoring: [1]
          (default) runs fully sequentially, [0] detects the core count,
          [n > 1] spawns [n - 1] worker domains.  Results are bit-identical
          at every setting ({!Parallel.Chunk}'s determinism contract), so
          [jobs] may differ between a journaled run and its resume. *)
  policy : policy;  (** always [Greedy] *)
}

val default : metric:Errest.Metrics.kind -> threshold:float -> t
(** Paper defaults: [N = 32], [L = 1], [t = 5], [r = 0.9]; evaluation sample
    4096 rounds, [Compress2] inter-iteration optimization, seed fixed. *)
