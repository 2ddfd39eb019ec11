(** The ALSRAC flow (Algorithm 3), hardened into a resilient runtime.

    Iteratively: simulate fresh random care patterns, generate LAC
    candidates, score every candidate with batch error estimation against
    the ORIGINAL circuit, apply the best one if it respects the error
    threshold, re-optimize with traditional synthesis, and dynamically shrink
    the simulation round [N] whenever no candidate exists for [t] consecutive
    iterations.  A candidate seen before on the same graph is answered by
    {!Lac_memo} instead of being scored and size-checked again.

    Three resilience mechanisms wrap the loop (see DESIGN.md, "Resilience &
    recovery"):

    - {b Guarded transforms} ([Config.guard], default on): every graph about
      to be committed — an accepted LAC after re-optimization, and the final
      resyn hand-off — must pass {!Aig.Check.check} plus a
      signature-consistency probe (its re-measured error on the evaluation
      sample must equal the predicted error; all transforms between
      prediction and commit are exact).  A violation rolls the flow back to
      the last good graph, quarantines the offending target (keyed by its
      evaluation-signature hash, stable across rebuilds) for the rest of the
      run, and continues.
    - {b Exception containment}: an iteration that raises (internal bug or
      injected fault) is abandoned; the last good graph is untouched and the
      flow continues with fresh patterns, up to a bounded number of
      recoveries.
    - {b Journaling} ([?journal]): after every accepted LAC the complete
      loop state and graph are checkpointed atomically via {!Journal};
      {!resume} restores a run mid-flight and — because all randomness flows
      from the single checkpointed stream — finishes with the exact circuit
      an uninterrupted run produces. *)

type event = Journal.event = {
  iteration : int;
  target : int;  (** node replaced *)
  est_error : float;  (** sampled error after the change *)
  ands_after : int;  (** AND count after change + re-optimization *)
  rounds : int;  (** care-simulation rounds [N] used this iteration *)
}

type certify = {
  exact_checks : int;  (** miter checks run on exact-transform applications *)
  exact_confirmed : int;  (** proven function-preserving by [Verify.Cec] *)
  exact_undecided : int;
      (** the bounded simulation-only portfolio could not close the miter;
          never treated as a pass *)
  exact_refuted : int;  (** proven NOT function-preserving — an internal bug *)
  lac_rechecks : int;  (** accepted LACs re-simulated on independent patterns *)
  lac_recheck_failures : int;
      (** rechecks deviating beyond the applicable tolerance: the
          two-sample Hoeffding tolerance for [0,1]-bounded mean metrics
          under the uniform distribution, [guard_tol] under an enumerated
          distribution (both measurements are exact over the support);
          deviations of unbounded means and max metrics are recorded but
          not judged — no such tolerance exists for them *)
  lac_max_deviation : float;
      (** largest |recheck - prediction| observed over the run *)
}
(** Verdicts of [Config.certify_exact] runs: machine-checked evidence that
    the run's two trust assumptions held — exact transforms preserved the
    function, and accepted LACs err as predicted.  Counters are per-process
    (not journaled): a resumed run reports the resumed portion only. *)

exception Cancelled
(** Raised by {!run}/{!resume} when the [?cancel] hook fires: at the next
    iteration boundary, or at the next pool chunk boundary inside
    simulation or candidate scoring, whichever comes first.  The loop state
    is abandoned exactly as an abrupt kill would leave it — the journal (if
    any) still holds the last accepted checkpoint, so a cancelled journaled
    run can be resumed or rolled back like a killed one. *)

type stop_reason =
  | Budget_exhausted  (** best candidate error exceeded the threshold *)
  | Stalled
      (** no productive candidate at the minimum simulation round, or the
          recovered-exception cap was hit *)
  | Max_iters
  | Emptied  (** the circuit shrank to constants *)
  | Timed_out
      (** the [max_seconds] wall-clock budget ended the loop; a reason the
          loop reached on its own is reported even if the clock has since
          run out *)

val stop_reason_to_string : stop_reason -> string
(** Kebab-case name: ["budget-exhausted"], ["stalled"], ["max-iters"],
    ["emptied"] or ["timed-out"] — as printed by [alsrac approx] and sent
    by the resident daemon. *)

type bound_family =
  | Hoeffding
      (** statistical upper bound at [Config.confidence], sound only for
          [0,1]-bounded mean metrics ({!Errest.Metrics.bounded_mean}) under
          Monte-Carlo uniform sampling *)
  | Exhaustive
      (** the evaluation covered the entire input space (enumerated support
          or exhaustive uniform evaluation): the value is exact *)
  | Max_miter
      (** exact worst-case error proven by the error-computation miter
          ({!Errest.Maxerr}): attained by a witness and proven unbeatable *)

type certificate = {
  upper : float;  (** certified upper bound on the true error *)
  family : bound_family;  (** which argument makes the bound sound *)
}

val family_to_string : bound_family -> string

type report = {
  input_ands : int;
  output_ands : int;
  applied : int;  (** number of accepted LACs *)
  final_est_error : float;  (** error on the flow's evaluation sample *)
  certified : certificate option;
      (** certified upper bound on the true error, tagged with the bound
          family that makes it sound.  [None] when no sound certificate
          exists: unbounded mean metrics ([Med], [Mse], [Mhd], [Mred])
          under Monte-Carlo sampling, or a max metric whose miter the
          bounded CEC portfolio could not close.  A max-metric report never
          carries a [Hoeffding] certificate — a sampled maximum bounds the
          truth from below, not above. *)
  final_rounds : int;  (** value of [N] at exit *)
  runtime_s : float;  (** CPU seconds, summed over all domains *)
  wall_s : float;  (** wall-clock seconds (with a pool the two diverge) *)
  stop_reason : stop_reason;
  guard_rejects : int;  (** transforms rolled back by the guard *)
  recovered_exns : int;  (** iterations abandoned after an exception *)
  quarantined : int;  (** targets barred for the rest of the run *)
  resumed : bool;  (** this report continues a journaled run *)
  pool : Parallel.Pool.stat array;
      (** per-worker execution counters of the run's pool (tasks, steals,
          busy/idle time); render with {!Parallel.Pool.pp_stats} *)
  scoring : Errest.Batch.stats;
      (** cumulative counters of the event-driven scoring kernel
          ({!Errest.Batch.stats}): candidates the kernel scored,
          difference-mask early exits, frontier nodes recomputed, changed
          POs/words re-measured.  Candidates whose error came from the
          candidate memo ({!Lac_memo}) are not in [scored]: the candidates
          ranked number [scoring.scored + memoised].  Per-process like
          [certify] — not journaled, so a resumed run reports the resumed
          portion only. *)
  memoised : int;
      (** ranked candidates whose predicted error the memo already held for
          the same graph; per-process like [scoring] *)
  rebuilds_skipped : int;
      (** raw rebuilds skipped because the memo held the candidate's
          size/depth rejection on the same graph; per-process like
          [scoring] *)
  resub : Resub_exact.stats option;
      (** cumulative counters of the exact-resubstitution pass, including
          its own scoring-kernel batch counters; [None] unless
          [Config.exact_resub].  Per-process like [scoring]. *)
  events : event list;  (** in application order, including pre-resume *)
  certify : certify option;
      (** verification verdicts; [None] unless [Config.certify_exact] *)
}

val run :
  ?journal:string ->
  ?cancel:(unit -> bool) ->
  ?pool:Parallel.Pool.t ->
  config:Config.t ->
  Aig.Graph.t ->
  Aig.Graph.t * report
(** Returns the approximate circuit (same PI/PO interface) and the run
    report.  The input graph is not modified.  The returned graph is
    right-sized ({!Aig.Graph.trim}).  [?journal] names a run
    directory to checkpoint into ({!Journal.create} — a fresh run, wiping
    any previous checkpoints there).  A worker pool of [config.jobs] lanes
    runs simulation, LAC generation and candidate scoring; every result is
    bit-identical to [jobs = 1].

    [?cancel] is a cooperative-cancellation hook, polled once per iteration
    and at every pool chunk boundary; when it returns [true] the run raises
    {!Cancelled} (see there for the state contract).  [?pool] runs the flow
    on an existing resident pool instead of creating one — [config.jobs] is
    then ignored and the pool is returned unchanged (its [should_stop] hook
    is restored on exit).  Cancellation and pool choice are execution
    policy: neither perturbs the result of a run that completes. *)

val resume :
  ?fault:Fault.plan ->
  ?jobs:int ->
  ?cancel:(unit -> bool) ->
  ?pool:Parallel.Pool.t ->
  string ->
  Aig.Graph.t * report
(** Resume an interrupted journaled run from its directory: the config is
    read back from the manifest, the loop state and graph from the newest
    readable checkpoint (falling back per {!Journal.load}), and the run
    continues — journaling into the same directory — to the same final
    circuit as an uninterrupted run.  [?fault] installs a fault plan for the
    resumed portion (testing only; plans are never persisted).  [?jobs]
    overrides the manifest's pool size — the pool is execution policy, not
    run identity, so resuming at a different [jobs] still reproduces the
    uninterrupted run bit-for-bit.  [?cancel] and [?pool] behave exactly as
    in {!run}, and the returned graph is right-sized as there.  Raises
    [Failure] if the directory is not a usable journal. *)
