(** What each LAC candidate costs to score and to size-check, memoised per
    graph (DESIGN.md §17).

    Between two accepted LACs the flow's graph does not change, and neither
    do the evaluation sample, the golden outputs and the graph's evaluation
    signatures.  A candidate generated again from a fresh care set — the
    same target, divisors and cover — therefore has the same predicted
    error and the same raw-rebuild size/depth verdict as before.  A memo
    keeps, for the last graph it was asked about: that graph's evaluation
    signatures, one {!Errest.Batch} over them, and per candidate its
    predicted error and, once its raw rebuild was tried and rejected, that
    rejection.  Asking about any other graph (physically) drops all of it
    first.

    Entries are packed into flat arrays: a candidate's key is its target,
    its one or two divisors and its cover's cubes, packed into three ints.
    No candidate, cover or cube list is kept.  A candidate whose key does
    not pack (more than two divisors, a wider or longer cover) is computed
    afresh every time.

    Every answer is the one a fresh computation gives: [Float.equal] errors,
    the same verdicts.  An exception is never memoised. *)

type t

val create :
  ?weights:float array ->
  pool:Parallel.Pool.t ->
  metric:Errest.Metrics.kind ->
  golden:Logic.Bitvec.t array ->
  patterns:Logic.Bitvec.t array ->
  depth_limit:int ->
  unit ->
  t
(** An empty memo.  [patterns] is the evaluation sample (one signature per
    PI), [golden] the original circuit's PO signatures on it, [weights] the
    per-round distribution weights (see {!Errest.Batch.create}).  A raw
    rebuild passes when it has fewer ANDs than the graph and depth at most
    [depth_limit]. *)

val scratch : t -> t
(** A memo with [t]'s settings and counters but nothing cached, for one
    iteration whose signatures or replacements are deliberately corrupted
    ({!Fault}): nothing computed through it reaches [t]'s cache, and its
    work still shows in [t]'s {!stats}. *)

val base_sigs : t -> Aig.Graph.t -> Logic.Bitvec.t array
(** Node signatures of the graph on the evaluation sample, simulated once
    per graph.  The array is the memo's own: the {!Errest.Batch} is built
    from it at the first candidate scored, so writes before that are what
    scoring sees. *)

val errors : t -> Aig.Graph.t -> Lac.t array -> float array
(** Predicted error of each candidate, in order: the error on the
    evaluation sample after replacing the target by the candidate's cover
    over its divisors ({!Errest.Batch.candidate_errors}).  Candidates not
    yet memoised on this graph are scored in one batch across the pool. *)

val rebuild :
  ?replacement:Aig.Graph.replacement ->
  t ->
  Aig.Graph.rebuilder ->
  Aig.Graph.t ->
  Lac.t ->
  Aig.Graph.t option
(** [rebuild t rb g lac]: the raw rebuild of [g] with the candidate
    applied ({!Aig.Graph.rebuild_with}), if it passes the size and depth
    check; [None] otherwise, with the rebuild handed back to [rb].  A
    rejection of a scored candidate is memoised, and a memoised rejection
    skips the rebuild.  [?replacement] overrides the candidate's own
    replacement; such a rebuild is neither looked up nor memoised. *)

type stats = {
  kernel : Errest.Batch.stats;  (** work of the scoring kernel *)
  memoised : int;  (** errors served by the memo instead of the kernel *)
  rebuilds_skipped : int;  (** raw rebuilds skipped on a memoised rejection *)
}

val stats : t -> stats
(** Cumulative since {!create}, shared with every {!scratch} memo. *)
