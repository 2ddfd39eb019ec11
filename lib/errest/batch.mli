(** Batch statistical error estimation for candidate changes (Su et al.,
    DAC 2018 — reference [13] of the paper).

    One base simulation of the current circuit is shared by all candidates;
    each candidate supplies only the new signature of its target node.  The
    estimator is event-driven (DESIGN.md §10): it walks the change's sparse
    fanout frontier in level order using the {!Aig.Fanout} CSR, recomputes
    only nodes with a changed fanin, stops propagating through any node
    whose recomputed signature equals its base signature (difference-mask
    early exit), and scores the surviving changed signature words of the
    changed POs through {!Metrics.measure_incremental} — bit-identical to a
    full re-simulation and re-measure, at a fraction of the work. *)

type t

val create :
  ?weights:float array ->
  Aig.Graph.t ->
  metric:Metrics.kind ->
  golden:Logic.Bitvec.t array ->
  base:Logic.Bitvec.t array ->
  t
(** [create g ~metric ~golden ~base]: [golden] are the PO signatures of the
    ORIGINAL circuit on the evaluation pattern set, [base] the node
    signatures of the CURRENT circuit [g] on the same set.  [weights] are
    per-round input-distribution weights (see {!Metrics.prepare}), folded
    into the prepared metric so every candidate score — incremental or full
    — is weighted identically.  Builds the
    fanout CSR once; it is rebuilt automatically if [g] is structurally
    mutated later (PO rewiring), but appending nodes after [create]
    invalidates [base] and raises [Invalid_argument] on the next use. *)

val graph : t -> Aig.Graph.t

val base_error : t -> float
(** Error of the current circuit itself (no change applied). *)

val candidate_error : t -> node:int -> new_sig:Logic.Bitvec.t -> float
(** Sampled error of the circuit after forcing [node]'s signature to
    [new_sig].  If the signature equals the base one, this is
    [base_error]. *)

val candidate_errors :
  ?pool:Parallel.Pool.t -> t -> (int * Logic.Bitvec.t) array -> float array
(** [candidate_errors t specs] is [candidate_error] over an array of
    [(node, new_sig)] pairs, result [i] for candidate [i].  With [?pool],
    candidates are scored concurrently — each chunk works on a private
    scratch clone while sharing the graph, base signatures, fanout CSR and
    the (pre-forced) incremental metric state read-only — and every
    per-candidate computation is unchanged, so the results are bit-identical
    to the sequential path at any pool size.  Chunk counters are folded
    into [t]'s in chunk order, so {!stats} is deterministic too. *)

(** {1 Scoring counters}

    Observational per-process counters (like the certification counters:
    NOT journaled, reset on resume).  Cumulative since [create]. *)

type stats = {
  scored : int;  (** candidates scored, including trivial ones *)
  trivial : int;  (** candidates whose signature equals the base *)
  early_exits : int;  (** non-trivial candidates whose diffs died out
                          before reaching any PO *)
  frontier_nodes : int;  (** fanout-cone nodes recomputed, total *)
  changed_pos : int;  (** changed primary outputs, total *)
  changed_words : int;  (** changed signature words re-measured, total *)
}

val stats : t -> stats

val zero_stats : stats

val add_stats : stats -> stats -> stats
