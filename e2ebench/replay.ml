(* Traced replay of the two synthesis calls the benchmark times.

   [flow] re-runs [Core.Flow.run] for the benchmark's configurations (uniform
   distribution, greedy policy, guard on, no fault plan, no ODC, no exact
   resub inside the flow) from the benchmark's side: the same public calls,
   in the library's order, on the same RNG stream, each wrapped in a span.
   [opt] does the same for [Aig.Resyn.compress2] with [Core.Resub_exact] as
   its fourth pass.  A replay that stops matching the library (a different
   output hash, accept count or stop reason) is reported as diverged by the
   caller, and its per-layer numbers are not used. *)

module Graph = Aig.Graph
module Flow = Core.Flow
module Config = Core.Config

type result = {
  graph : Graph.t;
  iterations : int;
  accepts : int;
  stop : Flow.stop_reason option;  (** [None] for [opt] *)
}

let sig_hash v =
  Array.fold_left
    (fun h w -> ((h * 1000003) lxor w) land max_int)
    (Logic.Bitvec.length v) (Logic.Bitvec.unsafe_words v)

let fatal = function
  | Core.Fault.Killed | Flow.Cancelled | Parallel.Pool.Cancelled | Stack_overflow
  | Out_of_memory | Sys.Break ->
      true
  | _ -> false

let max_recovered_exns = 50

(* The replay covers the configurations the benchmark runs and nothing else:
   anything outside them would follow code paths it does not mirror. *)
let supported (c : Config.t) =
  c.Config.distr = Errest.Distr.Unif
  && c.Config.input_probs = None
  && (not c.Config.use_odc) && c.Config.guard && (not c.Config.certify_exact)
  && (not c.Config.exact_resub) && c.Config.policy = Config.Greedy
  && c.Config.fault = Core.Fault.none && c.Config.resyn = Config.Compress2
  && c.Config.max_seconds = infinity

let flow tr ?journal ~(config : Config.t) g0 =
  if not (supported config) then invalid_arg "Replay.flow: unsupported configuration";
  let sp name f = Trace.span tr name f in
  let original = sp "aig.graph.compact" (fun () -> Graph.compact g0) in
  let j =
    Option.map
      (fun dir -> sp "core.journal.create" (fun () -> Core.Journal.create ~dir ~config ~original))
      journal
  in
  Parallel.Pool.with_pool ~jobs:1 @@ fun pool ->
  let npis = Graph.num_pis original in
  let rng = Logic.Rng.create config.seed in
  let eval_pats =
    let r = Logic.Rng.split rng in
    if npis <= Sim.Patterns.exhaustive_limit && 1 lsl npis <= config.eval_rounds then
      Sim.Patterns.exhaustive ~npis
    else Sim.Patterns.random r ~npis ~len:config.eval_rounds
  in
  let golden = sp "sim.eval" (fun () -> Sim.Engine.simulate_pos ~pool original eval_pats) in
  let g = ref original in
  let rb = Graph.rebuilder () in
  let depth_limit =
    if config.max_depth_growth = infinity then max_int
    else
      int_of_float
        (ceil
           (config.max_depth_growth
           *. float_of_int (max 1 (sp "aig.topo.depth" (fun () -> Aig.Topo.depth original)))))
  in
  let depth g = sp "aig.topo.depth" (fun () -> Aig.Topo.depth g) in
  let rounds = ref config.sim_rounds in
  let patience = ref 0 and shrinks_at_floor = ref 0 and applied = ref 0 in
  let iteration = ref 0 and accepts_since_full = ref 0 and last_error = ref 0.0 in
  let guard_rejects = ref 0 and recovered_exns = ref 0 in
  let events = ref [] in
  let quarantine : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  g := sp "aig.resyn.compress2" (fun () -> Aig.Resyn.compress2 original);
  let finished = ref false in
  let stop_reason = ref Flow.Max_iters in
  let measure_error g' =
    Errest.Metrics.measure config.metric ~golden
      ~approx:(Sim.Engine.simulate_pos ~pool g' eval_pats)
  in
  let guard_violation g' ~predicted =
    sp "core.flow.guard" @@ fun () ->
    if Graph.num_pis g' <> npis || Graph.num_pos g' <> Graph.num_pos original then
      Some "PI/PO interface changed"
    else
      match Aig.Check.check g' with
      | Error msg -> Some msg
      | Ok () ->
          if Float.abs (measure_error g' -. predicted) > config.guard_tol then
            Some "signature probe"
          else None
  in
  let optimize_step replaced =
    incr accepts_since_full;
    if !accepts_since_full >= 10 then begin
      accepts_since_full := 0;
      sp "aig.resyn.compress2" (fun () -> Aig.Resyn.compress2 replaced)
    end
    else sp "aig.resyn.light" (fun () -> Aig.Resyn.light replaced)
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
          stop_reason := Flow.Stalled;
          finished := true
        end
      end
    end
  in
  let snapshot () =
    {
      Core.Journal.rng_state = Logic.Rng.state rng;
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
  let iteration_body () =
    let care_sigs =
      sp "sim.care" (fun () ->
          Sim.Engine.simulate ~pool !g (Sim.Patterns.random rng ~npis ~len:!rounds))
    in
    let lacs =
      sp "core.lac.generate" (fun () ->
          Core.Lac.generate ~pool !g ~config ~sigs:care_sigs ~rounds:!rounds)
    in
    Trace.count tr "core.lac.candidates" (List.length lacs);
    if lacs = [] then shrink_rounds ()
    else begin
      let base_sigs = sp "sim.eval" (fun () -> Sim.Engine.simulate ~pool !g eval_pats) in
      let lacs =
        List.filter
          (fun (lac : Core.Lac.t) ->
            not (Hashtbl.mem quarantine (sig_hash base_sigs.(lac.Core.Lac.target))))
          lacs
      in
      let lac_arr = Array.of_list lacs in
      let errs, stats =
        sp "errest.batch" @@ fun () ->
        let batch = Errest.Batch.create !g ~metric:config.metric ~golden ~base:base_sigs in
        let specs =
          Array.map
            (fun (lac : Core.Lac.t) ->
              let pos_sigs = Array.map (fun d -> base_sigs.(d)) lac.Core.Lac.divisors in
              (lac.Core.Lac.target, Logic.Cover.eval_sigs lac.Core.Lac.cover ~pos_sigs))
            lac_arr
        in
        let errs = Errest.Batch.candidate_errors ~pool batch specs in
        (errs, Errest.Batch.stats batch)
      in
      Trace.count tr "errest.batch.scored" stats.Errest.Batch.scored;
      Trace.count tr "errest.batch.trivial" stats.Errest.Batch.trivial;
      Trace.count tr "errest.batch.frontier_nodes" stats.Errest.Batch.frontier_nodes;
      Trace.count tr "errest.batch.changed_words" stats.Errest.Batch.changed_words;
      let ranked =
        List.sort
          (fun (e1, (l1 : Core.Lac.t)) (e2, (l2 : Core.Lac.t)) ->
            let c = compare e1 e2 in
            if c <> 0 then c else compare l2.Core.Lac.gain l1.Core.Lac.gain)
          (Array.to_list (Array.mapi (fun i lac -> (errs.(i), lac)) lac_arr))
      in
      let budget = config.threshold *. config.margin in
      let rec try_apply ~skipped = function
        | [] -> `No_progress
        | (err, _) :: _ when err > budget -> if skipped then `No_progress else `Over_budget
        | (err, (lac : Core.Lac.t)) :: rest ->
            let replacement = Core.Lac.replacement lac in
            Trace.count tr "aig.graph.rebuilds" 1;
            let replaced =
              sp "aig.graph.rebuild" (fun () ->
                  Graph.rebuild_with rb
                    ~replace:(fun id ->
                      if id = lac.Core.Lac.target then Some replacement else None)
                    !g)
            in
            if Graph.num_ands replaced < Graph.num_ands !g && depth replaced <= depth_limit
            then begin
              let optimized = optimize_step replaced in
              sp "aig.graph.rebuild" (fun () -> Graph.recycle rb replaced);
              if depth optimized > depth_limit then try_apply ~skipped:true rest
              else
                match guard_violation optimized ~predicted:err with
                | Some _ ->
                    incr guard_rejects;
                    Hashtbl.replace quarantine (sig_hash base_sigs.(lac.Core.Lac.target)) ();
                    try_apply ~skipped:true rest
                | None ->
                    g := optimized;
                    incr applied;
                    last_error := err;
                    events :=
                      {
                        Core.Journal.iteration = !iteration;
                        target = lac.Core.Lac.target;
                        est_error = err;
                        ands_after = Graph.num_ands !g;
                        rounds = !rounds;
                      }
                      :: !events;
                    `Applied
            end
            else begin
              sp "aig.graph.rebuild" (fun () -> Graph.recycle rb replaced);
              try_apply ~skipped:true rest
            end
      in
      match try_apply ~skipped:false ranked with
      | `Applied ->
          patience := 0;
          Option.iter
            (fun j ->
              Trace.count tr "core.journal.records" 1;
              sp "core.journal.record" (fun () -> Core.Journal.record j (snapshot ()) !g))
            j;
          if Graph.num_ands !g = 0 then begin
            stop_reason := Flow.Emptied;
            finished := true
          end
      | `Over_budget ->
          stop_reason := Flow.Budget_exhausted;
          finished := true
      | `No_progress -> shrink_rounds ()
    end
  in
  while (not !finished) && !applied < config.max_iters do
    incr iteration;
    try sp "core.flow.iteration" iteration_body
    with e when not (fatal e) ->
      incr recovered_exns;
      if !recovered_exns >= max_recovered_exns then begin
        stop_reason := Flow.Stalled;
        finished := true
      end
  done;
  if (not !finished) && !applied >= config.max_iters then stop_reason := Flow.Max_iters;
  let final = sp "aig.resyn.compress2" (fun () -> Aig.Resyn.compress2 !g) in
  if Graph.num_ands final < Graph.num_ands !g && depth final <= depth_limit then begin
    match guard_violation final ~predicted:(sp "core.flow.guard" (fun () -> measure_error !g)) with
    | None -> g := final
    | Some _ -> incr guard_rejects
  end;
  let final_err =
    let approx = sp "sim.eval" (fun () -> Sim.Engine.simulate_pos ~pool !g eval_pats) in
    Errest.Metrics.measure config.metric ~golden ~approx
  in
  (* The flow's certificate step: a Hoeffding bound for bounded means under
     Monte-Carlo evaluation; exhaustive evaluation and unbounded means need
     no call. *)
  if
    (not (npis <= Sim.Patterns.exhaustive_limit && 1 lsl npis <= config.eval_rounds))
    && Errest.Metrics.bounded_mean config.metric
  then
    sp "errest.certify" (fun () ->
        ignore
          (Errest.Certify.upper_bound ~sampled:final_err
             ~samples:(Logic.Bitvec.length eval_pats.(0))
             ~confidence:config.confidence));
  Trace.count tr "core.flow.iterations" !iteration;
  Trace.count tr "core.flow.accepts" !applied;
  { graph = !g; iterations = !iteration; accepts = !applied; stop = Some !stop_reason }

(* [Aig.Resyn.compress2 ~resub] with every pass in its own span. *)
let opt tr ~(resub_config : Core.Resub_exact.config) g =
  let sp name f = Trace.span tr name f in
  let keep_smaller ~candidate ~current =
    if Graph.num_ands candidate <= Graph.num_ands current then candidate else current
  in
  let stats = ref Core.Resub_exact.zero_stats in
  let graph =
    sp "aig.resyn.compress2" @@ fun () ->
    let g0 = sp "aig.graph.compact" (fun () -> Graph.compact g) in
    let balance g =
      keep_smaller ~candidate:(sp "aig.resyn.balance" (fun () -> Aig.Balance.run g)) ~current:g
    in
    let g1 = balance g0 in
    let g2 = sp "aig.resyn.rewrite" (fun () -> Aig.Rewrite.run g1) in
    let g3 = sp "aig.resyn.refactor" (fun () -> Aig.Refactor.run g2) in
    let g4 = balance g3 in
    let g5 = sp "aig.resyn.rewrite" (fun () -> Aig.Rewrite.run g4) in
    let g6 = sp "aig.graph.compact" (fun () -> Graph.compact g5) in
    let g7 =
      let g', st =
        sp "core.resub_exact" (fun () -> Core.Resub_exact.run ~config:resub_config g6)
      in
      stats := st;
      keep_smaller ~candidate:g' ~current:g6
    in
    keep_smaller ~candidate:g7 ~current:g0
  in
  let s = !stats in
  List.iter
    (fun (k, v) -> Trace.count tr ("core.resub_exact." ^ k) v)
    [
      ("derived", s.Core.Resub_exact.derived);
      ("accepted", s.Core.Resub_exact.accepted);
      ("sim_refuted", s.Core.Resub_exact.sim_refuted);
      ("cec_refuted", s.Core.Resub_exact.cec_refuted);
      ("cec_undecided", s.Core.Resub_exact.cec_undecided);
    ];
  {
    graph;
    iterations = s.Core.Resub_exact.passes;
    accepts = s.Core.Resub_exact.accepted;
    stop = None;
  }
