(** Statistical certification of sampled error measurements.

    Liu & Zhang's method (reference [5]) certifies that an approximate
    circuit meets its error bound with a prescribed confidence, using
    concentration bounds on the Monte-Carlo estimate.

    {b Which bound family applies where.}  The Hoeffding bounds below are
    valid ONLY for metrics that are means of [0,1]-bounded per-round terms —
    exactly the kinds {!Metrics.bounded_mean} accepts ([Er], [Nmed],
    [Nmhd]).  Unbounded means ([Med], [Mse], [Mhd], [Mred]) admit no
    distribution-free concentration bound from a finite sample, and
    worst-case metrics ([Maxed], [Maxhd], [Maxred]) are not means at all: a
    sampled maximum is a {e lower} bound on the truth, so quoting Hoeffding
    for a max-error run would be unsound.  Max metrics are certified
    exactly by the error-computation miter in {!Maxerr}; enumerated
    distributions ({!Distr.Enum}) are measured exactly over their support
    and need no statistical bound at all.  [Core.Flow] reports carry the
    bound family alongside the value so no report can claim the wrong
    one. *)

val hoeffding_margin : samples:int -> confidence:float -> float
(** One-sided Hoeffding deviation bound for a mean of [0,1]-valued samples:
    with probability at least [confidence], the true mean is below the
    sampled mean plus this margin.  Requires [samples > 0] and
    [0 < confidence < 1]. *)

val upper_bound : sampled:float -> samples:int -> confidence:float -> float
(** Certified upper bound on the true error. *)

val certified_le :
  sampled:float -> samples:int -> confidence:float -> threshold:float -> bool
(** Does the sample certify [true error <= threshold] at this confidence? *)
