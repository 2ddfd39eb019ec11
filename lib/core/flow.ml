module Graph = Aig.Graph
module Bitvec = Logic.Bitvec

type event = Journal.event = {
  iteration : int;
  target : int;
  est_error : float;
  ands_after : int;
  rounds : int;
}

type stop_reason = Budget_exhausted | Stalled | Max_iters | Emptied | Timed_out

let stop_reason_to_string = function
  | Budget_exhausted -> "budget-exhausted"
  | Stalled -> "stalled"
  | Max_iters -> "max-iters"
  | Emptied -> "emptied"
  | Timed_out -> "timed-out"

exception Cancelled

type certify = {
  exact_checks : int;
  exact_confirmed : int;
  exact_undecided : int;
  exact_refuted : int;
  lac_rechecks : int;
  lac_recheck_failures : int;
  lac_max_deviation : float;
}

type bound_family = Hoeffding | Exhaustive | Max_miter

type certificate = { upper : float; family : bound_family }

let family_to_string = function
  | Hoeffding -> "hoeffding"
  | Exhaustive -> "exhaustive"
  | Max_miter -> "max-miter"

type report = {
  input_ands : int;
  output_ands : int;
  applied : int;
  final_est_error : float;
  certified : certificate option;
  final_rounds : int;
  runtime_s : float;
  wall_s : float;
  stop_reason : stop_reason;
  guard_rejects : int;
  recovered_exns : int;
  quarantined : int;
  resumed : bool;
  pool : Parallel.Pool.stat array;
  scoring : Errest.Batch.stats;
  memoised : int;
  rebuilds_skipped : int;
  resub : Resub_exact.stats option;
  events : event list;
  certify : certify option;
}

let log_src = Logs.Src.create "alsrac.flow" ~doc:"ALSRAC flow progress"

module Log = (val Logs.src_log log_src : Logs.LOG)

let optimize ?resub (config : Config.t) g =
  match config.resyn with
  | Config.No_resyn -> Graph.compact g
  | Config.Light -> Aig.Resyn.light g
  | Config.Compress2 -> Aig.Resyn.compress2 ?resub g

(* Pattern generation honouring the configured input distribution: under an
   enumerated distribution, care patterns are support rows sampled by
   weight; under the uniform one, [input_probs] may bias the care set. *)
let gen_patterns rng (config : Config.t) ~npis ~len =
  match config.distr with
  | Errest.Distr.Enum _ as d -> Errest.Distr.sample d rng ~npis ~len
  | Errest.Distr.Unif -> (
      match config.input_probs with
      | None -> Sim.Patterns.random rng ~npis ~len
      | Some probs -> Sim.Patterns.weighted rng ~probs ~len)

(* Uniform-distribution evaluation patterns: exhaustive when the input space
   is small enough, Monte-Carlo otherwise.  (An enumerated distribution is
   evaluated on its support instead — see [eval_set].) *)
let eval_patterns rng (config : Config.t) npis =
  if
    config.input_probs = None
    && Sim.Patterns.fits_exhaustive ~npis ~rounds:config.eval_rounds
  then Sim.Patterns.exhaustive ~npis
  else gen_patterns rng config ~npis ~len:config.eval_rounds

(* The evaluation sample and its per-round weights.  Enumerated
   distributions are evaluated EXACTLY: one round per support row, terms
   weighted by the row's probability — no Monte-Carlo error at all. *)
let eval_set rng (config : Config.t) npis =
  match config.distr with
  | Errest.Distr.Unif -> (eval_patterns rng config npis, None)
  | Errest.Distr.Enum _ as d ->
      (Errest.Distr.signatures d, Errest.Distr.round_weights d)

(* Quarantine key of a node: a hash of its evaluation signature.  The eval
   pattern set is fixed for the whole run, so the key survives the node-id
   renumbering of rebuild/compact — a misbehaving target stays quarantined
   even after the graph around it changes. *)
let sig_hash v =
  Array.fold_left
    (fun h w -> ((h * 1000003) lxor w) land max_int)
    (Bitvec.length v) (Bitvec.unsafe_words v)

(* Exceptions the per-iteration recovery wrapper must never swallow.
   Cancellation is in this set: a caller that asked the flow to stop must
   get control back, not watch the loop retry with fresh patterns. *)
let fatal = function
  | Fault.Killed | Cancelled | Parallel.Pool.Cancelled | Stack_overflow
  | Out_of_memory | Sys.Break ->
      true
  | _ -> false

let max_recovered_exns = 50

let run_loop ~(config : Config.t) ~pool ~cancel ~journal ~original
    ~(init : Journal.state option) g_start =
  let t_start = Sys.time () in
  let w_start = Parallel.Clock.now_s () in
  let npis = Graph.num_pis original in
  (match Errest.Distr.validate_npis config.distr ~npis with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Flow: " ^ msg));
  let rng0 = Logic.Rng.create config.seed in
  let eval_pats, eval_weights = eval_set (Logic.Rng.split rng0) config npis in
  let golden = Sim.Engine.simulate_pos ~pool original eval_pats in
  (* On resume the journal's RNG state supersedes the fresh stream: pattern
     generation continues exactly where the interrupted run left off. *)
  let rng =
    match init with None -> rng0 | Some s -> Logic.Rng.of_state s.Journal.rng_state
  in
  let g = ref g_start in
  (* Candidate-rebuild arena: the loop below materializes one rebuilt graph
     per tried candidate and throws most of them away at the cheap size
     check, so the mapping scratch and the rejected graph's arrays are
     recycled instead of re-allocated (steady state: zero allocation per
     rejected candidate beyond what the strash folding itself demands). *)
  let rb = Graph.rebuilder () in
  let depth_limit =
    if config.max_depth_growth = infinity then max_int
    else
      int_of_float
        (ceil (config.max_depth_growth *. float_of_int (max 1 (Aig.Topo.depth original))))
  in
  let field f default = match init with None -> default | Some s -> f s in
  let rounds = ref (field (fun s -> s.Journal.rounds) config.sim_rounds) in
  let patience = ref (field (fun s -> s.Journal.patience) 0) in
  let shrinks_at_floor = ref (field (fun s -> s.Journal.shrinks_at_floor) 0) in
  let applied = ref (field (fun s -> s.Journal.applied) 0) in
  let iteration = ref (field (fun s -> s.Journal.iteration) 0) in
  let events = ref (field (fun s -> s.Journal.events) []) in
  let last_error = ref (field (fun s -> s.Journal.last_error) 0.0) in
  let guard_rejects = ref (field (fun s -> s.Journal.guard_rejects) 0) in
  let recovered_exns = ref (field (fun s -> s.Journal.recovered_exns) 0) in
  let accepts_since_full = ref (field (fun s -> s.Journal.accepts_since_full) 0) in
  let quarantine : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  field (fun s -> List.iter (fun h -> Hashtbl.replace quarantine h ()) s.Journal.quarantined) ();
  (* Exact-resubstitution pass ([Config.exact_resub]): threaded into every
     [Compress2] invocation as [Aig.Resyn]'s fourth pass.  Exact and
     self-certifying (every commit is CEC-proven inside [Resub_exact]), so
     the guard's "error is bit-for-bit unchanged" contract still holds.
     Deterministic in the config seed alone — a resumed run re-derives the
     same passes, keeping resume byte-identity.  Counters are per-process,
     like [scoring]. *)
  let resub_stats = ref Resub_exact.zero_stats in
  let resub =
    if config.exact_resub then
      Some
        (fun g ->
          let g', st =
            Resub_exact.run ~pool
              ~config:{ Resub_exact.default with Resub_exact.seed = config.seed }
              g
          in
          resub_stats := Resub_exact.add_stats !resub_stats st;
          g')
    else None
  in
  (* Certification counters are per-process observations (like fault plans,
     they are not journaled): a resumed run's verdicts cover the resumed
     portion only. *)
  let cert_exact_checks = ref 0
  and cert_exact_confirmed = ref 0
  and cert_exact_undecided = ref 0
  and cert_exact_refuted = ref 0
  and cert_lac_rechecks = ref 0
  and cert_lac_failures = ref 0
  and cert_lac_maxdev = ref 0.0 in
  (* Miter-check one exact-transform application.  Bounded effort: verdicts
     the portfolio cannot decide are counted, not guessed.  The check is
     sequential and draws no randomness from the run's stream, so it cannot
     perturb the flow's results at any [jobs] setting. *)
  let certify_exact_step what before after =
    if config.certify_exact then begin
      incr cert_exact_checks;
      match
        Verify.Cec.run ~seed:(config.seed + 0x5EED) ~rounds:512
          ~effort:Verify.Cec.Fast before after
      with
      | Verify.Cec.Equivalent -> incr cert_exact_confirmed
      | Verify.Cec.Undecided msg ->
          incr cert_exact_undecided;
          Log.debug (fun m -> m "certify: %s left undecided (%s)" what msg)
      | Verify.Cec.Inequivalent cex ->
          incr cert_exact_refuted;
          Log.err (fun m ->
              m "certify: exact transform %s is NOT function-preserving (PO %d)" what
                cex.Verify.Cec.po)
    end
  in
  (match init with
  | None ->
      let optimized = optimize ?resub config g_start in
      certify_exact_step "initial resyn" g_start optimized;
      g := optimized
  | Some _ -> ());
  let finished = ref false in
  let stop_reason = ref Max_iters in
  let snapshot () =
    {
      Journal.rng_state = Logic.Rng.state rng;
      rounds = !rounds;
      patience = !patience;
      shrinks_at_floor = !shrinks_at_floor;
      applied = !applied;
      iteration = !iteration;
      accepts_since_full = !accepts_since_full;
      last_error = !last_error;
      guard_rejects = !guard_rejects;
      recovered_exns = !recovered_exns;
      quarantined =
        List.sort compare (Hashtbl.fold (fun h () acc -> h :: acc) quarantine []);
      policy_state = "";
      events = !events;
    }
  in
  let measure_error g' =
    Errest.Metrics.measure ?weights:eval_weights config.metric ~golden
      ~approx:(Sim.Engine.simulate_pos ~pool g' eval_pats)
  in
  (* The guard: a candidate graph is kept only if it passes the structural
     invariants AND a signature-consistency probe — every transform between
     prediction and commit is exact, so the re-measured error must agree
     with the predicted one (within float-summation noise).  Returns the
     violation, if any. *)
  let guard_violation g' ~predicted =
    if not config.guard then None
    else if Graph.num_pis g' <> npis || Graph.num_pos g' <> Graph.num_pos original then
      Some "PI/PO interface changed"
    else
      match Aig.Check.check g' with
      | Error msg -> Some msg
      | Ok () ->
          let measured = measure_error g' in
          if Float.abs (measured -. predicted) > config.guard_tol then
            Some
              (Printf.sprintf "signature probe: measured %.9g vs predicted %.9g"
                 measured predicted)
          else None
  in
  (* Under Compress2, the full pipeline runs every tenth accepted LAC and at
     the end; the cheap sweep+balance runs in between.  This keeps the large
     arithmetic circuits tractable without giving up the final quality. *)
  let optimize_step replaced =
    let optimized =
      match config.resyn with
      | Config.No_resyn -> Graph.compact replaced
      | Config.Light -> Aig.Resyn.light replaced
      | Config.Compress2 ->
          incr accepts_since_full;
          if !accepts_since_full >= 10 then begin
            accepts_since_full := 0;
            Aig.Resyn.compress2 ?resub replaced
          end
          else Aig.Resyn.light replaced
    in
    certify_exact_step "inter-iteration resyn" replaced optimized;
    optimized
  in
  let shrink_rounds () =
    incr patience;
    if !patience >= config.patience then begin
      patience := 0;
      if !rounds > config.min_rounds then
        rounds := max config.min_rounds (int_of_float (float_of_int !rounds *. config.scale))
      else begin
        incr shrinks_at_floor;
        if !shrinks_at_floor > 3 then begin
          stop_reason := Stalled;
          finished := true
        end
      end
    end
  in
  (* Scores and raw-rebuild verdicts of the current graph's candidates,
     kept until the graph changes (DESIGN.md §17).  Never journaled: a
     checkpoint is taken at an accept, after which the memo starts over on
     the new graph anyway. *)
  let memo =
    Lac_memo.create ?weights:eval_weights ~pool ~metric:config.metric ~golden
      ~patterns:eval_pats ~depth_limit ()
  in
  let iteration_body () =
    let care_pats = gen_patterns rng config ~npis ~len:!rounds in
    let care_sigs = Sim.Engine.simulate ~pool !g care_pats in
    if Fault.should_raise config.fault ~iteration:!iteration then
      raise (Fault.Injected (Printf.sprintf "injected exception at iteration %d" !iteration));
    let obs =
      if config.use_odc then Some (Errest.Observability.masks !g ~sigs:care_sigs)
      else None
    in
    let lacs = Lac.generate ?obs ~pool !g ~config ~sigs:care_sigs ~rounds:!rounds in
    if lacs = [] then
      (* Algorithm 3 line 10: only after [t] consecutive empty iterations is
         the care set shrunk; fresh patterns alone may unblock us. *)
      shrink_rounds ()
    else begin
      let flip = Fault.flip_signatures config.fault ~iteration:!iteration in
      let corrupt_pending = ref (Fault.corrupt_lac config.fault ~iteration:!iteration) in
      (* An iteration with an injected fault scores on a memo of its own:
         a prediction from skewed signatures, or a rejection of a corrupted
         replacement, must not outlive it. *)
      let memo = if flip = None && not !corrupt_pending then memo else Lac_memo.scratch memo in
      let base_sigs = Lac_memo.base_sigs memo !g in
      (match flip with
      | Some bit ->
          (* Soft-error model: skew every node's evaluation signature, so the
             error predictions below no longer describe the real graph. *)
          Array.iter
            (fun s ->
              let len = Bitvec.length s in
              if len > 0 then begin
                let b = bit mod len in
                Bitvec.set s b (not (Bitvec.get s b))
              end)
            base_sigs
      | None -> ());
      (* Quarantined targets are dead to the run: a LAC on them already broke
         the guard once. *)
      let lac_arr =
        Array.of_list
          (List.filter
             (fun (lac : Lac.t) ->
               not (Hashtbl.mem quarantine (sig_hash base_sigs.(lac.Lac.target))))
             lacs)
      in
      (* Candidate scoring is the hottest loop of a flow iteration: the memo
         fans what it has not scored on this graph yet across the pool.
         Every error is bit-identical to the sequential scoring at any pool
         size, so the ranking below — and with it the whole run — is too. *)
      let errs = Lac_memo.errors memo !g lac_arr in
      let scored =
        Array.to_list (Array.mapi (fun i lac -> (errs.(i), lac)) lac_arr)
      in
      (* Best LAC = smallest induced error, ties broken by estimated gain
         (Algorithm 3 line 6).  The estimate can still be optimistic when
         the factored form re-shares with live logic, so walk the ranking
         and accept the first candidate that actually shrinks the graph. *)
      let ranked =
        List.sort
          (fun (e1, (l1 : Lac.t)) (e2, (l2 : Lac.t)) ->
            let c = compare e1 e2 in
            if c <> 0 then c else compare l2.Lac.gain l1.Lac.gain)
          scored
      in
      let budget = config.threshold *. config.margin in
      let rec try_apply ~skipped = function
        | [] -> `No_progress
        | (err, _) :: _ when err > budget ->
            (* Smallest remaining error exceeds the budget.  If that holds
               for the very best candidate, terminate (Algorithm 3 line 7);
               if we only got here by skipping no-op candidates, let fresh
               patterns try again first. *)
            if skipped then `No_progress else `Over_budget
        | (err, (lac : Lac.t)) :: rest -> (
            let replacement =
              if !corrupt_pending then begin
                (* Injected ISOP corruption: commit a constant in place of
                   the derived function; the prediction above still
                   describes the true one, so the guard must trip. *)
                corrupt_pending := false;
                let s = base_sigs.(lac.Lac.target) in
                Some
                  (Graph.Replace_lit
                     (if 2 * Bitvec.popcount s > Bitvec.length s then Graph.const0
                      else Graph.const1))
              end
              else None
            in
            (* Cheap progress check on the raw rebuild; the (expensive)
               re-optimization runs only on accepted candidates and can only
               shrink further. *)
            match Lac_memo.rebuild ?replacement memo rb !g lac with
            | None -> try_apply ~skipped:true rest
            | Some replaced ->
              let optimized = optimize_step replaced in
              (* [optimize_step] copies into a fresh graph, so the raw
                 rebuild is dead either way from here on. *)
              Graph.recycle rb replaced;
              (* The optimizer itself may deepen (refactor trades depth for
                 area); guard the graph we would actually keep. *)
              if Aig.Topo.depth optimized > depth_limit then try_apply ~skipped:true rest
              else
                match guard_violation optimized ~predicted:err with
                | Some violation ->
                    (* Roll back (the candidate graph is simply dropped) and
                       quarantine the target for the rest of the run. *)
                    incr guard_rejects;
                    Hashtbl.replace quarantine (sig_hash base_sigs.(lac.Lac.target)) ();
                    Log.warn (fun m ->
                        m "iter %d: guard rejected LAC on node %d (%s); rolled back"
                          !iteration lac.Lac.target violation);
                    try_apply ~skipped:true rest
                | None ->
                    g := optimized;
                    incr applied;
                    last_error := err;
                    (* Independent cross-check of the accepted LAC: its
                       predicted error must re-measure consistently on a
                       pattern set the flow never saw.  The recheck RNG is
                       derived from (seed, iteration), never from the run's
                       stream, so journaled resumes are unaffected. *)
                    if config.certify_exact && npis > 0 then begin
                      incr cert_lac_rechecks;
                      let recheck_rng =
                        Logic.Rng.create ((config.seed * 1_000_003) + !iteration)
                      in
                      (* Under an enumerated distribution the recheck is the
                         exact support measurement itself — any deviation
                         beyond float-summation noise is a failure. *)
                      let pats, wts =
                        match config.distr with
                        | Errest.Distr.Enum _ as d ->
                            (Errest.Distr.signatures d, Errest.Distr.round_weights d)
                        | Errest.Distr.Unif ->
                            ( gen_patterns recheck_rng config ~npis
                                ~len:(max 64 config.eval_rounds),
                              None )
                      in
                      let e2 =
                        Errest.Metrics.compare_graphs ?weights:wts config.metric
                          ~original ~approx:optimized pats
                      in
                      let dev = Float.abs (e2 -. err) in
                      if dev > !cert_lac_maxdev then cert_lac_maxdev := dev;
                      let fail tol =
                        if dev > tol then begin
                          incr cert_lac_failures;
                          Log.err (fun m ->
                              m
                                "certify: LAC on node %d re-simulates at %.6g vs \
                                 predicted %.6g (tolerance %.3g)"
                                lac.Lac.target e2 err tol)
                        end
                      in
                      match config.distr with
                      | Errest.Distr.Enum _ -> fail config.guard_tol
                      | Errest.Distr.Unif ->
                          if Errest.Metrics.bounded_mean config.metric then
                            (* Both estimates concentrate around the true
                               error; their gap is bounded by the sum of the
                               two one-sided Hoeffding margins. *)
                            let n1 =
                              if Array.length eval_pats > 0 then
                                Bitvec.length eval_pats.(0)
                              else max 64 config.eval_rounds
                            in
                            fail
                              (Errest.Certify.hoeffding_margin ~samples:n1
                                 ~confidence:0.9999
                              +. Errest.Certify.hoeffding_margin
                                   ~samples:(max 64 config.eval_rounds)
                                   ~confidence:0.9999)
                          (* Unbounded means and max metrics admit no such
                             two-sample tolerance: deviations are recorded
                             in [lac_max_deviation], not judged. *)
                    end;
                    events :=
                      {
                        iteration = !iteration;
                        target = lac.Lac.target;
                        est_error = err;
                        ands_after = Graph.num_ands !g;
                        rounds = !rounds;
                      }
                      :: !events;
                    Log.debug (fun m ->
                        m "iter %d: applied LAC on node %d, err %.5f, ands %d" !iteration
                          lac.Lac.target err (Graph.num_ands !g));
                    `Applied)
      in
      match try_apply ~skipped:false ranked with
      | `Applied ->
          patience := 0;
          (match journal with Some j -> Journal.record j (snapshot ()) !g | None -> ());
          if Graph.num_ands !g = 0 then begin
            stop_reason := Emptied;
            finished := true
          end
      | `Over_budget ->
          stop_reason := Budget_exhausted;
          finished := true
      | `No_progress ->
          (* All candidates were no-ops: treat like an empty candidate set
             so the dynamic-N schedule can unblock us. *)
          shrink_rounds ()
    end
  in
  (* The [max_seconds] budget is wall-clock: with a worker pool, CPU time
     accumulates across domains roughly [jobs] times faster than the wall,
     which is not what a time budget means. *)
  while
    (not !finished) && !applied < config.max_iters
    && Parallel.Clock.now_s () -. w_start < config.max_seconds
  do
    (* Cooperative cancellation checkpoint: once per iteration here, plus
       every pool chunk boundary via the [should_stop] hook installed by
       [run]/[resume].  The journal (if any) already holds the last accepted
       state, so a cancelled run resumes or rolls back cleanly. *)
    if cancel () then raise Cancelled;
    if Fault.should_kill config.fault ~applied:!applied then raise Fault.Killed;
    incr iteration;
    (* Containment: an iteration that blows up (an internal bug, or an
       injected fault) abandons its partial work — [!g] still holds the last
       good graph — and the flow moves on to fresh patterns. *)
    try iteration_body ()
    with e when not (fatal e) ->
      incr recovered_exns;
      Log.warn (fun m ->
          m "iter %d: recovered from exception %s; continuing from last good graph"
            !iteration (Printexc.to_string e));
      if !recovered_exns >= max_recovered_exns then begin
        stop_reason := Stalled;
        finished := true
      end
  done;
  (* A reason the loop decided stands; otherwise the loop condition that
     failed — the iteration cap, checked first, or the clock — names it. *)
  if not !finished then
    stop_reason := if !applied >= config.max_iters then Max_iters else Timed_out;
  (match config.resyn with
  | Config.Compress2 ->
      let final = Aig.Resyn.compress2 ?resub !g in
      certify_exact_step "final resyn" !g final;
      if
        Graph.num_ands final < Graph.num_ands !g
        && Aig.Topo.depth final <= depth_limit
      then begin
        (* Guard the hand-off exactly like an accepted LAC: compress2 is an
           exact transform, so the error must be bit-for-bit unchanged. *)
        match
          if config.guard then guard_violation final ~predicted:(measure_error !g)
          else None
        with
        | None -> g := final
        | Some violation ->
            incr guard_rejects;
            Log.warn (fun m -> m "final resyn pass rejected by guard (%s); rolled back" violation)
      end
  | Config.No_resyn | Config.Light -> ());
  let final_approx = Sim.Engine.simulate_pos ~pool !g eval_pats in
  let final_err =
    Errest.Metrics.measure ?weights:eval_weights config.metric ~golden
      ~approx:final_approx
  in
  let eval_len =
    if Array.length eval_pats > 0 then Bitvec.length eval_pats.(0) else config.eval_rounds
  in
  (* The certificate and its bound family.  Each family is only ever claimed
     where it is sound:
     - [Exhaustive]: the measurement already covered the whole input space
       (enumerated support, or exhaustive uniform evaluation) — the sampled
       value IS the true value;
     - [Max_miter]: worst-case metrics under the uniform distribution get
       the exact error-computation-miter certificate ({!Errest.Maxerr});
     - [Hoeffding]: [0,1]-bounded mean metrics under Monte-Carlo sampling
       ({!Errest.Metrics.bounded_mean}); NEVER claimed for a max metric,
       whose sampled value is a lower bound the inequality runs the wrong
       way for. *)
  let certified =
    match config.distr with
    | Errest.Distr.Enum _ -> Some { upper = final_err; family = Exhaustive }
    | Errest.Distr.Unif ->
        if Errest.Metrics.is_max config.metric then begin
          if Graph.num_pos original > 62 then None
          else
            match
              Errest.Maxerr.certify ~seed:(config.seed + 0x3A7) config.metric
                ~original ~approx:!g
            with
            | Errest.Maxerr.Exact { max; _ } ->
                Some { upper = max; family = Max_miter }
            | Errest.Maxerr.Undecided msg ->
                Log.warn (fun m -> m "max-error certification undecided: %s" msg);
                None
        end
        else if
          config.input_probs = None
          && Sim.Patterns.fits_exhaustive ~npis ~rounds:config.eval_rounds
        then Some { upper = final_err; family = Exhaustive }
        else if Errest.Metrics.bounded_mean config.metric then
          Some
            {
              upper =
                Errest.Certify.upper_bound ~sampled:final_err ~samples:eval_len
                  ~confidence:config.confidence;
              family = Hoeffding;
            }
        else None
  in
  (* Right-size the result: a caller keeping many results would otherwise
     keep every graph's growth slack and cached views alive. *)
  Graph.trim !g;
  (* Scoring counters are observational and per-process, not journaled (a
     resumed run reports the resumed portion only). *)
  let memo_stats = Lac_memo.stats memo in
  ( !g,
    {
      input_ands = Graph.num_ands original;
      output_ands = Graph.num_ands !g;
      applied = !applied;
      final_est_error = final_err;
      certified;
      final_rounds = !rounds;
      runtime_s = Sys.time () -. t_start;
      wall_s = Parallel.Clock.now_s () -. w_start;
      stop_reason = !stop_reason;
      guard_rejects = !guard_rejects;
      recovered_exns = !recovered_exns;
      quarantined = Hashtbl.length quarantine;
      resumed = init <> None;
      pool = Parallel.Pool.stats pool;
      scoring = memo_stats.Lac_memo.kernel;
      memoised = memo_stats.Lac_memo.memoised;
      rebuilds_skipped = memo_stats.Lac_memo.rebuilds_skipped;
      resub = (if config.exact_resub then Some !resub_stats else None);
      events = List.rev !events;
      certify =
        (if config.certify_exact then
           Some
             {
               exact_checks = !cert_exact_checks;
               exact_confirmed = !cert_exact_confirmed;
               exact_undecided = !cert_exact_undecided;
               exact_refuted = !cert_exact_refuted;
               lac_rechecks = !cert_lac_rechecks;
               lac_recheck_failures = !cert_lac_failures;
               lac_max_deviation = !cert_lac_maxdev;
             }
         else None);
    } )

let no_cancel () = false

(* Execution policy shared by [run] and [resume]: use the caller's resident
   pool when one is given (the serving layer keeps one pool warm across
   requests), otherwise create and tear down a private one.  When a cancel
   hook is active it is also installed as the pool's [should_stop] for the
   duration of the run — chunk-grained cancellation inside simulation and
   scoring — and restored afterwards, so an external pool comes back
   unchanged.  [Pool.Cancelled] escaping a chunk is normalized to
   {!Cancelled}: callers see one cancellation exception regardless of which
   checkpoint fired first. *)
let with_run_pool ?pool ~jobs ~cancel f =
  let go pool =
    if cancel == no_cancel then f pool
    else
      Fun.protect
        ~finally:(fun () -> Parallel.Pool.set_should_stop pool None)
        (fun () ->
          Parallel.Pool.set_should_stop pool (Some cancel);
          try f pool with Parallel.Pool.Cancelled -> raise Cancelled)
  in
  match pool with
  | Some p -> go p
  | None -> Parallel.Pool.with_pool ~jobs go

let run ?journal ?(cancel = no_cancel) ?pool ~(config : Config.t) g0 =
  let original = Graph.compact g0 in
  let j = Option.map (fun dir -> Journal.create ~dir ~config ~original) journal in
  with_run_pool ?pool ~jobs:config.jobs ~cancel (fun pool ->
      run_loop ~config ~pool ~cancel ~journal:j ~original ~init:None original)

let resume ?(fault = Fault.none) ?jobs ?(cancel = no_cancel) ?pool dir =
  let r = Journal.load dir in
  (match r.Journal.degraded with
  | Some msg -> Log.warn (fun m -> m "resume: %s" msg)
  | None -> ());
  let config = { r.Journal.config with Config.fault } in
  (* The worker-pool size is execution policy, not run identity: results are
     bit-identical at any [jobs], so a resume may use a different pool size
     than the interrupted run. *)
  let config =
    match jobs with Some j -> { config with Config.jobs = j } | None -> config
  in
  let j = Journal.reopen dir in
  with_run_pool ?pool ~jobs:config.Config.jobs ~cancel (fun pool ->
      run_loop ~config ~pool ~cancel ~journal:(Some j) ~original:r.Journal.original
        ~init:r.Journal.state r.Journal.graph)
