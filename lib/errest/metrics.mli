(** Error metrics between a golden and an approximate circuit (Section II-B,
    extended to the full ResubALS metric set plus worst-case metrics).

    Output vectors are interpreted as unsigned integers with PO index 0 the
    least-significant bit, matching the conventions of [lib/circuits].

    Two aggregate families exist: {e mean} metrics average a per-round term
    over the sampled rounds (optionally weighted by an input distribution),
    and {e max} metrics take the worst per-round term.  Mean metrics compose
    with Hoeffding certification only when bounded in [0, 1]
    ({!bounded_mean}); max metrics are certified exactly by the
    error-computation miter in {!Maxerr}. *)

type kind =
  | Er  (** error rate: fraction of rounds with any differing PO *)
  | Med  (** mean error distance *)
  | Nmed  (** mean error distance normalized by [2^O - 1] *)
  | Mred  (** mean relative error distance *)
  | Mse  (** mean squared error distance *)
  | Mhd  (** mean Hamming distance over the PO bits *)
  | Nmhd  (** mean Hamming distance normalized by the PO count *)
  | Maxed  (** maximum error distance over the rounds *)
  | Maxhd  (** maximum Hamming distance over the rounds *)
  | Maxred  (** maximum relative error distance over the rounds *)

val kind_to_string : kind -> string
val kind_of_string : string -> kind option

val all_kinds : kind list
(** Every metric, in declaration order — the matrix axis the tests sweep. *)

val is_max : kind -> bool
(** True for the worst-case metrics ([Maxed], [Maxhd], [Maxred]). *)

val bounded_mean : kind -> bool
(** True for mean metrics whose value always lies in [0, 1] ([Er], [Nmed],
    [Nmhd]) — the only kinds a Hoeffding bound ({!Certify}) applies to.
    [Mred] is NOT bounded (a zero golden value makes the relative error
    exceed 1), and the max kinds are not means at all. *)

val er : golden:Logic.Bitvec.t array -> approx:Logic.Bitvec.t array -> float
(** From PO signature arrays of equal shape. *)

val mean_ed : golden:Logic.Bitvec.t array -> approx:Logic.Bitvec.t array -> float
(** Average absolute difference of the encoded outputs.  Requires at most 62
    POs — as do all the value-decoded metrics below. *)

val med : golden:Logic.Bitvec.t array -> approx:Logic.Bitvec.t array -> float
(** Alias of {!mean_ed} under its ResubALS name. *)

val nmed : golden:Logic.Bitvec.t array -> approx:Logic.Bitvec.t array -> float
val mred : golden:Logic.Bitvec.t array -> approx:Logic.Bitvec.t array -> float
val mse : golden:Logic.Bitvec.t array -> approx:Logic.Bitvec.t array -> float
val mhd : golden:Logic.Bitvec.t array -> approx:Logic.Bitvec.t array -> float
val nmhd : golden:Logic.Bitvec.t array -> approx:Logic.Bitvec.t array -> float

val measure :
  ?weights:float array ->
  kind ->
  golden:Logic.Bitvec.t array ->
  approx:Logic.Bitvec.t array ->
  float
(** [measure ?weights kind ~golden ~approx] with [weights] the per-round
    input-distribution weights (one non-negative finite float per round,
    positive total).  For mean kinds the result is the probability-weighted
    mean [sum_m (p_m / total) * term_m]; for max kinds the maximum over the
    support rounds ([p_m > 0]).  Omitting [weights] is the uniform
    distribution.  Weighted measurement decodes output values and therefore
    requires at most 62 POs even for [Er]. *)

(** {1 Prepared measurement}

    When the same golden outputs are compared against many approximations
    (batch LAC scoring), the golden-side decode is done once. *)

type prepared

val prepare : ?weights:float array -> kind -> golden:Logic.Bitvec.t array -> prepared
(** The distribution [weights] (same contract as {!measure}) are folded into
    the prepared per-round multipliers once, so every subsequent
    measurement — full or incremental — is weighted identically. *)

val measure_prepared : prepared -> approx:Logic.Bitvec.t array -> float
(** Error of one approximation against the prepared golden outputs.  Mean
    error distances are summed word-blocked: per 62-round block in round
    order, then across blocks in block order — the same order the
    incremental path below uses, which is what makes the two bit-identical.
    Max kinds take the maximum of the identical per-round terms, which is
    order-insensitive. *)

(** {1 Incremental measurement}

    Per-word base contributions, so a candidate whose change reaches only a
    few signature words pays only for those words plus one cheap fold over
    the per-word partials.  The invariant (enforced by the differential
    tests): for any approximation, substituting the recomputed contributions
    of exactly the words whose PO signatures differ from the base and
    re-folding reproduces {!measure_prepared} on the full approximation
    {e bit-for-bit} ([Float.equal], not approximately). *)

type incremental

val prepare_incremental :
  prepared -> approx:Logic.Bitvec.t array -> incremental
(** [prepare_incremental prep ~approx] caches the per-word state of the BASE
    approximation [approx]: for uniform ER the per-word OR of output
    differences and its popcount; for mean kinds the per-word weighted
    partial sums; for max kinds the per-word maximum term.  Every kind but
    uniform ER also keeps the base's decoded output values and borrows its
    PO words, so [approx] must not be mutated afterwards.  The result is
    immutable and safe to share read-only across domains. *)

val incremental_base : incremental -> float
(** Error of the base approximation itself; bit-identical to
    [measure_prepared prep ~approx:base]. *)

val measure_incremental :
  incremental ->
  nchanged:int ->
  changed_words:int array ->
  nchanged_pos:int ->
  changed_pos:int array ->
  get_word:(int -> int -> int) ->
  float
(** [measure_incremental inc ~nchanged ~changed_words ~nchanged_pos
    ~changed_pos ~get_word] is the error of a candidate that differs from
    the base only inside signature words [changed_words.(0 .. nchanged - 1)]
    (sorted ascending, no duplicates) and only on the POs
    [changed_pos.(0 .. nchanged_pos - 1)] (any order, no duplicates).  Every
    PO whose signature may differ from the base must be listed; an unlisted
    PO is taken to equal the base.  [get_word po w] must return word [w] of
    the candidate's signature for PO [po] — tail-masked, and equal to the
    base word for every [w] outside the changed set.  Uniform ER reads
    [get_word] for every PO of a changed word; the value kinds read it for
    the listed POs only and flip the base values at the bits that differ,
    so they cost O(changed words * (62 + flipped bits)). *)

val output_values : Logic.Bitvec.t array -> int array
(** Decode PO signatures into one unsigned integer per simulation round. *)

val compare_graphs :
  ?weights:float array ->
  kind ->
  original:Aig.Graph.t ->
  approx:Aig.Graph.t ->
  Logic.Bitvec.t array ->
  float
(** Simulate both circuits on the same pattern set and measure.  The graphs
    must agree in PI and PO counts. *)

val evaluate :
  ?seed:int ->
  ?sample:int ->
  kind ->
  original:Aig.Graph.t ->
  approx:Aig.Graph.t ->
  float
(** Final-quality measurement under the uniform distribution: exhaustive
    when every input fits in [sample] rounds
    ({!Sim.Patterns.fits_exhaustive}), Monte-Carlo with [sample] rounds
    otherwise.  Default [sample] is [2^17]; the paper uses [10^7] rounds,
    see DESIGN.md §2.7. *)
