(** Exact maximum-error certification by error-computation miter.

    Sampling finds candidate worst-case rounds fast, but a sampled maximum is
    only a lower bound on the true worst case.  This module closes the gap
    without SAT: it appends a word-level error computation (subtractor /
    popcount / constant-multiplier comparator, built from {!Circuits.Word})
    to a shared-PI copy of both circuits, producing a {e violation miter}
    whose single output is true exactly on the inputs where the error
    exceeds a candidate bound — then proves that output constant-false with
    the {!Verify.Cec} portfolio.  A counterexample is a concrete input whose
    (exactly re-evaluated) error replaces the bound, so the loop climbs
    through attained error values and terminates at the true maximum:
    attained by a witness {e and} proven unbeatable.

    MaxRED bounds are ratios of output integers; the certificate keeps them
    as exact rationals ([|d| * den > num * max(g,1)] in the miter, 124-bit
    cross products in the comparisons) so no float rounding can leak into a
    proof.

    This is the bound family for the max metrics; the Hoeffding bounds of
    {!Certify} apply only to [0,1]-bounded mean metrics (see
    {!Metrics.bounded_mean}). *)

type outcome =
  | Exact of {
      max : float;  (** [num /. den], for display and threshold checks *)
      num : int;
      den : int;  (** 1 except for [Maxred] *)
      refinements : int;  (** witness-refinement iterations beyond the sample *)
    }
  | Undecided of string
      (** the CEC portfolio could not close the miter (or the refinement
          budget ran out); the message says why *)

val certify :
  ?seed:int ->
  ?rounds:int ->
  ?effort:Verify.Cec.effort ->
  ?max_refinements:int ->
  Metrics.kind ->
  original:Aig.Graph.t ->
  approx:Aig.Graph.t ->
  outcome
(** [certify kind ~original ~approx] computes the exact maximum error under
    the uniform input space for a max metric ([Maxed], [Maxhd], [Maxred] —
    anything else raises [Invalid_argument], as do interface mismatches and
    more than 62 POs).  Defaults: [seed = 1], [rounds = 4096] simulation
    rounds for the starting sample (exhaustive when at most 16 PIs),
    [effort = Thorough], [max_refinements = 200].  Deterministic in the
    seed.

    Enumerated distributions never need this machinery: their support is
    explicit, so the exact maximum is a direct measurement over
    {!Distr.signatures}. *)

val certified_le :
  ?seed:int ->
  ?rounds:int ->
  ?effort:Verify.Cec.effort ->
  ?max_refinements:int ->
  Metrics.kind ->
  original:Aig.Graph.t ->
  approx:Aig.Graph.t ->
  threshold:float ->
  (bool, string) result
(** [Ok true] iff the proven exact maximum respects the threshold;
    [Error msg] when the portfolio cannot decide. *)

val violation :
  Metrics.kind ->
  original:Aig.Graph.t ->
  approx:Aig.Graph.t ->
  num:int ->
  den:int ->
  Aig.Graph.t
(** The raw violation miter: a circuit over the shared PIs with one PO that
    is true exactly where the error of [approx] strictly exceeds
    [num / den].  Exposed for the oracle tests, which enumerate all [2^n]
    inputs against it. *)
