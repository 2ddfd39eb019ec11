(** Simulation-guided exact Boolean resubstitution (Lee, Riener,
    Mishchenko — "Simulation-Guided Boolean Resubstitution",
    arXiv 2007.02579), validated by the CEC portfolio instead of SAT.

    The engine shares ALSRAC's whole substrate: divisor candidates come from
    the nearest-first, signature-filtered {!Divisor.collect}; divisor sets
    are visited by the same ranked lazy walk as approximate LACs
    ({!Divisor.iter_ranked}) and each is tried by the same step
    ({!Resub.attempt}: care scan, where an unseen divisor tuple is a free
    choice, then Espresso-ISOP + factoring); candidate scoring runs through
    the event-driven {!Errest.Batch} kernel.
    What makes it EXACT is the commit protocol: a candidate is only applied
    if {!Verify.Cec} proves the rebuilt graph equivalent to the pre-sweep
    graph — [Undecided] is a rollback, never an accept — so don't-cares can
    be approximated from simulation without ever risking the function.

    Each pass sweeps the AND nodes in topological order.  Per target:
    0-resub (constant on every pattern), then k-resub for k ≤ 3 over the
    nearest divisors ({!Divisor.resub_blocks}: at most 48 collected, triples
    of the nearest 10, pairs of the nearest 20, every divisor alone).  Sets
    are visited by their savings bound, savings − (k − 1), best first; at
    equal bound triples come before pairs and pairs before singletons, each
    in nearest-first order.  The walk stops when the bound falls below one
    AND or after the 4th feasible set, and the target takes the derived
    candidate with the best net AND saving (MFFC nodes freed minus
    {!Logic.Factor.and2_cost}).  Passes repeat until a sweep accepts
    nothing (bounded by [max_passes]).

    Deterministic: the sweep is sequential; a pool only accelerates the
    bit-identical simulation and batch-scoring primitives, so results are
    byte-identical at any pool size. *)

type config = {
  rounds : int;  (** simulation rounds per sweep (exhaustive if it fits) *)
  seed : int;  (** fixes the pattern stream and the CEC seed *)
  max_passes : int;  (** sweep cap; passes stop early at a fixpoint *)
  cec_rounds : int;  (** refutation rounds of each certification call *)
}
(** Fixed, not configurable: on non-exhaustive sweeps 2048 independent
    re-simulation rounds gate each commit before CEC; certification runs
    at [Verify.Cec.Fast] effort; and after 4 consecutive [Undecided]
    verdicts a sweep stops attempting commits — on graphs whose delta
    miters the portfolio cannot close (deep dividers, square roots) every
    attempt is a seconds-long guaranteed rollback.  The streak is a
    function of the graph and the seed, so stopping is deterministic. *)

val default : config

type stats = {
  passes : int;  (** sweeps run *)
  targets : int;  (** live AND nodes visited *)
  derived : int;  (** conflict-free divisor sets derived (ISOP + factoring) *)
  accepted : int;  (** resubstitutions committed — all CEC-proven *)
  sim_refuted : int;
      (** candidates killed by the independent re-simulation filter — the
          cheap stage that keeps false candidates away from the portfolio *)
  cec_undecided : int;  (** candidates rolled back on an [Undecided] verdict *)
  cec_refuted : int;
      (** candidates the portfolio proved wrong — simulation don't-cares
          that were not don't-cares; caught before commit by design *)
  batch : Errest.Batch.stats;  (** scoring-kernel counters of the sweeps *)
}

val zero_stats : stats
val add_stats : stats -> stats -> stats

val run :
  ?pool:Parallel.Pool.t ->
  ?config:config ->
  Aig.Graph.t ->
  Aig.Graph.t * stats
(** Run passes to a fixpoint (or [max_passes]).  The result is proven
    equivalent to the input at every commit point, never larger in AND
    count, and has the same PI/PO interface.  It is trimmed
    ({!Aig.Graph.trim}), so a caller keeping many results keeps no growth
    slack.  The input is not modified. *)
