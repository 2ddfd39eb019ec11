(* ALSRAC command-line driver: benchmark generation, statistics, exact
   optimization, approximate synthesis (ALSRAC / Su / MCMC), technology
   mapping and error measurement. *)

let ( let* ) = Result.bind

(* ---------- Circuit loading / saving ---------- *)

(* Parsers and the journal report recoverable problems (malformed input,
   unusable run directory) as [Failure]: surface those as ordinary CLI
   errors, not cmdliner's uncaught-exception backtrace. *)
let failure_to_msg f = try f () with Failure msg -> Error (`Msg msg)

let load spec =
  if Sys.file_exists spec then
    failure_to_msg @@ fun () ->
    if Filename.check_suffix spec ".blif" then Ok (Circuit_io.Blif.read spec)
    else if Filename.check_suffix spec ".bench" then Ok (Circuit_io.Bench_fmt.read spec)
    else if Filename.check_suffix spec ".aag" then Ok (Circuit_io.Aiger.read spec)
    else Error (`Msg (Printf.sprintf "unknown circuit format: %s" spec))
  else
    match Circuits.Suite.find spec with
    | Some e -> Ok (e.Circuits.Suite.build ())
    | None ->
        Error
          (`Msg
             (Printf.sprintf
                "%s is neither a file nor a known benchmark (try `alsrac list')" spec))

let save path g =
  if Filename.check_suffix path ".blif" then Ok (Circuit_io.Blif.write_graph path g)
  else if Filename.check_suffix path ".bench" then
    Ok (Circuit_io.Bench_fmt.write_graph path g)
  else if Filename.check_suffix path ".aag" then Ok (Circuit_io.Aiger.write_graph path g)
  else if Filename.check_suffix path ".v" then Ok (Circuit_io.Verilog.write_graph path g)
  else if Filename.check_suffix path ".dot" then Ok (Circuit_io.Dot.write_graph path g)
  else Error (`Msg (Printf.sprintf "unknown output format: %s" path))

(* ---------- list ---------- *)

let list_cmd () =
  List.iter
    (fun (e : Circuits.Suite.entry) ->
      let g = e.Circuits.Suite.build () in
      Printf.printf "%-10s %-22s pi=%4d po=%4d and=%6d depth=%4d  %s\n"
        e.Circuits.Suite.name
        (Circuits.Suite.klass_to_string e.Circuits.Suite.klass)
        (Aig.Graph.num_pis g) (Aig.Graph.num_pos g) (Aig.Graph.num_ands g)
        (Aig.Topo.depth g) e.Circuits.Suite.note)
    Circuits.Suite.all;
  Ok ()

(* ---------- gen ---------- *)

let gen_cmd name output =
  let* g = load name in
  save output g

(* ---------- stats ---------- *)

let stats_cmd spec mapping =
  let* g = load spec in
  Printf.printf "%s: pi=%d po=%d and=%d depth=%d\n" (Aig.Graph.name g)
    (Aig.Graph.num_pis g) (Aig.Graph.num_pos g) (Aig.Graph.num_ands g)
    (Aig.Topo.depth g);
  (match mapping with
  | `None -> ()
  | `Asic ->
      let m = Techmap.Cellmap.run g in
      Printf.printf "asic: cells=%d area=%.1f delay=%.2f\n" (Techmap.Mapped.num_cells m)
        (Techmap.Mapped.area m) (Techmap.Mapped.delay m)
  | `Fpga ->
      let m = Techmap.Lutmap.run g in
      Printf.printf "fpga: luts=%d depth=%d\n" (Techmap.Mapped.num_cells m)
        (Techmap.Mapped.depth m));
  Ok ()

(* ---------- opt ---------- *)

let opt_cmd spec fraig exact_resub output =
  let* g = load spec in
  let before = Aig.Graph.num_ands g in
  let rstats = ref Core.Resub_exact.zero_stats in
  let resub =
    if exact_resub then
      Some
        (fun g ->
          let g', st = Core.Resub_exact.run g in
          rstats := Core.Resub_exact.add_stats !rstats st;
          g')
    else None
  in
  let g' = Aig.Resyn.compress2 ?resub g in
  let g' = if fraig then Aig.Resyn.compress2 ?resub (Sim.Fraig.run g') else g' in
  Printf.printf "%s: %d -> %d ands (depth %d -> %d)\n"
    (String.concat "+"
       (("compress2" :: (if exact_resub then [ "resub" ] else []))
       @ (if fraig then [ "fraig" ] else [])))
    before (Aig.Graph.num_ands g') (Aig.Topo.depth g) (Aig.Topo.depth g');
  if exact_resub then begin
    let s = !rstats in
    Printf.printf
      "resub: %d accepted over %d passes (%d targets, %d feasible sets, %d \
       derived, %d sim-refuted, %d undecided, %d refuted)\n"
      s.Core.Resub_exact.accepted s.Core.Resub_exact.passes
      s.Core.Resub_exact.targets s.Core.Resub_exact.feasible
      s.Core.Resub_exact.derived s.Core.Resub_exact.sim_refuted
      s.Core.Resub_exact.cec_undecided s.Core.Resub_exact.cec_refuted
  end;
  match output with Some path -> save path g' | None -> Ok ()

(* ---------- eval ---------- *)

let parse_metric m =
  match Errest.Metrics.kind_of_string m with
  | Some k -> Ok k
  | None ->
      Error
        (`Msg
           (Printf.sprintf
              "unknown metric %s (er|med|nmed|mred|mse|mhd|nmhd|maxed|maxhd|maxred)"
              m))

let parse_distr spec =
  if String.lowercase_ascii (String.trim spec) = "unif" then Ok Errest.Distr.Unif
  else
    match (try Errest.Distr.load spec with Sys_error e -> Error e) with
    | Ok d -> Ok d
    | Error e -> Error (`Msg (Printf.sprintf "--distr %s: %s" spec e))

let check_distr_npis distr g =
  match Errest.Distr.validate_npis distr ~npis:(Aig.Graph.num_pis g) with
  | Ok () -> Ok ()
  | Error e -> Error (`Msg e)

(* Rates and normalized distances read naturally as percentages; absolute
   distances and worst-case bounds do not (a max ED of 3 is not 300%). *)
let format_metric_value metric v =
  match metric with
  | Errest.Metrics.Er | Errest.Metrics.Nmed | Errest.Metrics.Nmhd
  | Errest.Metrics.Mred ->
      Printf.sprintf "%.6f%%" (100.0 *. v)
  | Errest.Metrics.Med | Errest.Metrics.Mse | Errest.Metrics.Mhd
  | Errest.Metrics.Maxed | Errest.Metrics.Maxhd | Errest.Metrics.Maxred ->
      Printf.sprintf "%.6f" v

(* Under an enumerated distribution the error is computed exactly over the
   support with per-row weights; no Monte-Carlo estimate is involved. *)
let measure_under distr metric ~original ~approx ~sample =
  match distr with
  | Errest.Distr.Unif -> Errest.Metrics.evaluate ~sample metric ~original ~approx
  | Errest.Distr.Enum _ as d ->
      Errest.Metrics.compare_graphs
        ?weights:(Errest.Distr.round_weights d)
        metric ~original ~approx (Errest.Distr.signatures d)

let eval_cmd original approx metric sample distr =
  let* metric = parse_metric metric in
  let* distr = parse_distr distr in
  let* g0 = load original in
  let* g1 = load approx in
  let* () = check_distr_npis distr g0 in
  let e = measure_under distr metric ~original:g0 ~approx:g1 ~sample in
  Printf.printf "%s = %s\n"
    (Errest.Metrics.kind_to_string metric)
    (format_metric_value metric e);
  Ok ()

(* ---------- approx ---------- *)

let approx_cmd spec metric threshold method_ seed eval_rounds mapping output journal
    resume guard certify exact_resub jobs distr max_error =
  let* metric = parse_metric metric in
  (* [--max-error E] is worst-case sugar: budget E on the maximum error,
     defaulting the metric to maxed unless a max metric was named
     explicitly (maxhd / maxred). *)
  let* metric, threshold =
    match max_error with
    | None -> Ok (metric, threshold)
    | Some e when e < 0.0 -> Error (`Msg "--max-error must be non-negative")
    | Some e ->
        if Errest.Metrics.is_max metric then Ok (metric, e)
        else Ok (Errest.Metrics.Maxed, e)
  in
  let* distr = parse_distr distr in
  let* () =
    if (journal <> None || resume <> None) && method_ <> "alsrac" then
      Error (`Msg "--journal/--resume are only supported with --method alsrac")
    else Ok ()
  in
  (* A resumed run is the journal's run: its manifest's metric and
     distribution and its original circuit stand in for [-m], [--distr] and
     CIRCUIT, so every report line below describes the run that resumed. *)
  let* g, metric, distr =
    match resume with
    | None ->
        let* g = load spec in
        Ok (g, metric, distr)
    | Some dir ->
        failure_to_msg @@ fun () ->
        let r = Core.Journal.load dir in
        let c = r.Core.Journal.config in
        Ok (r.Core.Journal.original, c.Core.Config.metric, c.Core.Config.distr)
  in
  let original = Aig.Graph.compact g in
  let* () = check_distr_npis distr original in
  let* () =
    if Errest.Distr.is_enum distr && method_ <> "alsrac" then
      Error (`Msg "--distr is only supported with --method alsrac")
    else Ok ()
  in
  let t0 = Sys.time () in
  let* () =
    if jobs <> None && method_ <> "alsrac" then
      Error (`Msg "--jobs is only supported with --method alsrac")
    else Ok ()
  in
  let* () =
    if certify && method_ <> "alsrac" then
      Error (`Msg "--certify-exact is only supported with --method alsrac")
    else Ok ()
  in
  let* () =
    if exact_resub && method_ <> "alsrac" then
      Error (`Msg "--exact-resub is only supported with --method alsrac")
    else Ok ()
  in
  let* approx =
    match method_ with
    | "alsrac" ->
        let config =
          { (Core.Config.default ~metric ~threshold) with
            Core.Config.seed;
            eval_rounds;
            guard;
            certify_exact = certify;
            exact_resub;
            distr;
            jobs = Option.value jobs ~default:1 }
        in
        let* a, r =
          failure_to_msg @@ fun () ->
          Ok
            (match resume with
            | Some dir ->
                (* The journal manifest supersedes the command line: metric,
                   threshold, seed and the rest come from the original run.
                   [--jobs] is the exception — the pool size is execution
                   policy and results are jobs-invariant, so a resume may
                   use any pool size. *)
                Core.Flow.resume ?jobs dir
            | None -> Core.Flow.run ?journal ~config g)
        in
        Printf.printf "alsrac: %d LACs applied%s, sampled %s = %s\n"
          r.Core.Flow.applied
          (if r.Core.Flow.resumed then " (resumed)" else "")
          (Errest.Metrics.kind_to_string metric)
          (format_metric_value metric r.Core.Flow.final_est_error);
        Printf.printf "stop: %s (N=%d)\n"
          (Core.Flow.stop_reason_to_string r.Core.Flow.stop_reason)
          r.Core.Flow.final_rounds;
        (match r.Core.Flow.certified with
        | Some c ->
            Printf.printf "certified %s <= %s (%s)\n"
              (Errest.Metrics.kind_to_string metric)
              (format_metric_value metric c.Core.Flow.upper)
              (Core.Flow.family_to_string c.Core.Flow.family)
        | None -> ());
        (match r.Core.Flow.certify with
        | Some c ->
            Printf.printf
              "certify: %d/%d exact transforms proven equivalent (%d undecided, %d \
               refuted); %d LAC rechecks, %d outside tolerance (max deviation %.3g)\n"
              c.Core.Flow.exact_confirmed c.Core.Flow.exact_checks
              c.Core.Flow.exact_undecided c.Core.Flow.exact_refuted
              c.Core.Flow.lac_rechecks c.Core.Flow.lac_recheck_failures
              c.Core.Flow.lac_max_deviation
        | None -> ());
        if
          r.Core.Flow.guard_rejects > 0
          || r.Core.Flow.recovered_exns > 0
          || r.Core.Flow.quarantined > 0
        then
          Printf.printf
            "resilience: %d guard rollbacks, %d quarantined targets, %d recovered exceptions\n"
            r.Core.Flow.guard_rejects r.Core.Flow.quarantined
            r.Core.Flow.recovered_exns;
        (let s = r.Core.Flow.scoring in
         if s.Errest.Batch.scored > 0 then
           Printf.printf
             "scoring: %d candidates (%d trivial, %d early exits), %d frontier \
              nodes, %d changed POs, %d changed words\n"
             s.Errest.Batch.scored s.Errest.Batch.trivial s.Errest.Batch.early_exits
             s.Errest.Batch.frontier_nodes s.Errest.Batch.changed_pos
             s.Errest.Batch.changed_words);
        (match r.Core.Flow.resub with
        | Some s ->
            Printf.printf
              "resub: %d accepted over %d passes (%d targets, %d feasible sets, \
               %d derived, %d sim-refuted, %d undecided, %d refuted; %d scored)\n"
              s.Core.Resub_exact.accepted s.Core.Resub_exact.passes
              s.Core.Resub_exact.targets s.Core.Resub_exact.feasible
              s.Core.Resub_exact.derived s.Core.Resub_exact.sim_refuted
              s.Core.Resub_exact.cec_undecided s.Core.Resub_exact.cec_refuted
              s.Core.Resub_exact.batch.Errest.Batch.scored
        | None -> ());
        if Array.length r.Core.Flow.pool > 1 then begin
          Printf.printf "parallel: %s (wall %.1fs, cpu %.1fs)\n"
            (Errest.Observability.pool_summary r.Core.Flow.pool)
            r.Core.Flow.wall_s r.Core.Flow.runtime_s;
          Format.printf "%a@." Errest.Observability.pp_pool_stats r.Core.Flow.pool
        end;
        Ok a
    | "sasimi" | "su" ->
        let config =
          { (Baselines.Sasimi.default_config ~metric ~threshold) with
            Baselines.Sasimi.seed; eval_rounds }
        in
        let a, r = Baselines.Sasimi.run ~config g in
        Printf.printf "sasimi: %d substitutions, sampled %s = %s\n"
          r.Baselines.Sasimi.applied
          (Errest.Metrics.kind_to_string metric)
          (format_metric_value metric r.Baselines.Sasimi.final_est_error);
        Ok a
    | "mcmc" | "liu" ->
        let config =
          { (Baselines.Mcmc.default_config ~metric ~threshold) with
            Baselines.Mcmc.seed; eval_rounds }
        in
        let a, r = Baselines.Mcmc.run ~config g in
        Printf.printf "mcmc: %d/%d proposals accepted, sampled %s = %s\n"
          r.Baselines.Mcmc.accepted r.Baselines.Mcmc.proposals_tried
          (Errest.Metrics.kind_to_string metric)
          (format_metric_value metric r.Baselines.Mcmc.final_est_error);
        Ok a
    | m -> Error (`Msg (Printf.sprintf "unknown method %s (alsrac|sasimi|mcmc)" m))
  in
  let runtime = Sys.time () -. t0 in
  Printf.printf "ands: %d -> %d (ratio %.2f%%), runtime %.1fs\n"
    (Aig.Graph.num_ands original) (Aig.Graph.num_ands approx)
    (100.0 *. float_of_int (Aig.Graph.num_ands approx)
    /. float_of_int (max 1 (Aig.Graph.num_ands original)))
    runtime;
  let exact =
    measure_under distr metric ~original ~approx ~sample:(1 lsl 17)
  in
  Printf.printf "measured %s = %s\n"
    (Errest.Metrics.kind_to_string metric)
    (format_metric_value metric exact);
  (match mapping with
  | `None -> ()
  | `Asic ->
      let m0 = Techmap.Cellmap.run original and m1 = Techmap.Cellmap.run approx in
      Printf.printf "asic area ratio: %.2f%%  delay ratio: %.2f%%\n"
        (100.0 *. Techmap.Mapped.area m1 /. Float.max 1.0 (Techmap.Mapped.area m0))
        (100.0 *. Techmap.Mapped.delay m1 /. Float.max 0.001 (Techmap.Mapped.delay m0))
  | `Fpga ->
      let m0 = Techmap.Lutmap.run original and m1 = Techmap.Lutmap.run approx in
      Printf.printf "fpga LUT ratio: %.2f%%  depth ratio: %.2f%%\n"
        (100.0
        *. float_of_int (Techmap.Mapped.num_cells m1)
        /. float_of_int (max 1 (Techmap.Mapped.num_cells m0)))
        (100.0
        *. float_of_int (Techmap.Mapped.depth m1)
        /. float_of_int (max 1 (Techmap.Mapped.depth m0))));
  match output with Some path -> save path approx | None -> Ok ()

(* ---------- cec ---------- *)

let cec_cmd a_spec b_spec seed rounds effort =
  let* a = load a_spec in
  let* b = load b_spec in
  let* () =
    if Aig.Graph.num_pis a <> Aig.Graph.num_pis b then
      Error
        (`Msg
           (Printf.sprintf "PI count mismatch: %s has %d, %s has %d" a_spec
              (Aig.Graph.num_pis a) b_spec (Aig.Graph.num_pis b)))
    else if Aig.Graph.num_pos a <> Aig.Graph.num_pos b then
      Error
        (`Msg
           (Printf.sprintf "PO count mismatch: %s has %d, %s has %d" a_spec
              (Aig.Graph.num_pos a) b_spec (Aig.Graph.num_pos b)))
    else Ok ()
  in
  match Verify.Cec.run ~seed ~rounds ~effort a b with
  | Verify.Cec.Equivalent ->
      Printf.printf "equivalent\n";
      Ok ()
  | Verify.Cec.Inequivalent cex ->
      Printf.printf "inequivalent: output %d (%s) is %b in %s, %b in %s\n"
        cex.Verify.Cec.po
        (Aig.Graph.po_name a cex.Verify.Cec.po)
        cex.Verify.Cec.value_a a_spec cex.Verify.Cec.value_b b_spec;
      Printf.printf "counterexample (PI order):\n";
      Array.iteri
        (fun i v ->
          Printf.printf "  %s = %d\n" (Aig.Graph.pi_name a i) (if v then 1 else 0))
        cex.Verify.Cec.inputs;
      Error (`Msg "circuits are not equivalent")
  | Verify.Cec.Undecided msg -> Error (`Msg ("undecided: " ^ msg))

(* ---------- map ---------- *)

let map_cmd spec target output =
  let* g = load spec in
  let m =
    match target with
    | `Asic -> Techmap.Cellmap.run g
    | `Fpga | `None -> Techmap.Lutmap.run g
  in
  Printf.printf "%s\n" (Format.asprintf "%a" Techmap.Mapped.pp_stats m);
  match output with
  | None -> Ok ()
  | Some path ->
      if Filename.check_suffix path ".blif" then Ok (Circuit_io.Blif.write_mapped path m)
      else if Filename.check_suffix path ".v" then
        Ok (Circuit_io.Verilog.write_mapped path m)
      else Error (`Msg "mapped output must be .blif or .v")

(* ---------- explore ---------- *)

let explore_cmd dir benchmarks ladder seed eval_rounds max_iters shards shard_id jobs
    quiet distr =
  let* ladders =
    match Explore.Ladder.parse ladder with Ok l -> Ok l | Error e -> Error (`Msg e)
  in
  let* distr = parse_distr distr in
  let spec =
    {
      Explore.Sweep.dir;
      benchmarks =
        String.split_on_char ',' benchmarks
        |> List.map String.trim
        |> List.filter (fun b -> b <> "");
      ladders;
      seed;
      eval_rounds;
      max_iters;
      shards;
      shard_id;
      jobs;
      distr;
    }
  in
  let log = if quiet then fun _ -> () else print_endline in
  (* An unreadable or unsupported stored manifest raises [Failure]. *)
  let* r = failure_to_msg (fun () -> Ok (Explore.Sweep.run ~log spec)) in
  match r with
  | Error e -> Error (`Msg e)
  | Ok p ->
      let m = p.Explore.Sweep.manifest in
      Printf.printf
        "explore: %d/%d points complete (%d ran here, %d found done; shard %d/%d owns \
         %d)\n"
        (p.Explore.Sweep.already_done + p.Explore.Sweep.ran)
        p.Explore.Sweep.total p.Explore.Sweep.ran p.Explore.Sweep.already_done shard_id
        shards p.Explore.Sweep.owned;
      List.iter
        (fun (l : Explore.Ladder.t) ->
          List.iter
            (fun bench ->
              Printf.printf "front: %s\n"
                (Explore.Store.front_path dir ~bench ~metric:l.Explore.Ladder.metric))
            m.Explore.Store.benchmarks;
          Printf.printf "front: %s\n"
            (Explore.Store.corpus_front_path dir ~metric:l.Explore.Ladder.metric))
        m.Explore.Store.ladders;
      Ok ()

(* ---------- serve / client ---------- *)

let serve_cmd socket state_dir jobs max_queue max_resident_mb deadline
    read_timeout max_sessions fault_spec log =
  failure_to_msg @@ fun () ->
  let fault = Core.Fault.plan_of_string fault_spec in
  Serve.Daemon.run
    {
      Serve.Daemon.socket;
      state_dir;
      jobs;
      max_queue;
      max_resident_mb;
      default_deadline_s = deadline;
      read_timeout_s = read_timeout;
      max_sessions;
      fault;
      log;
    };
  Ok ()

(* Transport failures are operational errors (daemon down, timeout), not
   bugs: surface them as CLI messages. *)
let transport_to_msg f =
  try f () with
  | Serve.Transport.Closed -> Error (`Msg "connection closed by daemon")
  | Serve.Transport.Timeout -> Error (`Msg "timed out waiting for the daemon")
  | Serve.Transport.Malformed m -> Error (`Msg ("malformed reply: " ^ m))
  | Unix.Unix_error (e, _, _) -> Error (`Msg (Unix.error_message e))

let print_ok_kvs kvs = List.iter (fun (k, v) -> Printf.printf "%s %s\n" k v) kvs

let response_to_result resp =
  match resp with
  | Serve.Protocol.Ok (kvs, _) ->
      print_ok_kvs kvs;
      Ok resp
  | Serve.Protocol.Err { code; detail; retry_after_s } ->
      Error
        (`Msg
           (Printf.sprintf "%s: %s%s"
              (Serve.Protocol.code_to_string code)
              detail
              (match retry_after_s with
              | Some r -> Printf.sprintf " (retry after %.1fs)" r
              | None -> "")))

let client_cmd socket verb session circuit metric threshold seed eval_rounds
    max_iters deadline priority output =
  let* metric = parse_metric metric in
  let need what = function
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "%s requires %s" verb what))
  in
  transport_to_msg @@ fun () ->
  let conn = Serve.Client.connect ~path:socket () in
  Fun.protect ~finally:(fun () -> Serve.Client.close conn) @@ fun () ->
  match verb with
  | "ping" ->
      if Serve.Client.ping conn then begin
        print_endline "pong";
        Ok ()
      end
      else Error (`Msg "daemon did not answer the ping")
  | "load" ->
      let* s = need "SESSION" session in
      let* c = need "CIRCUIT" circuit in
      (* A file ships its AIGER bytes; anything else names a daemon-side
         benchmark. *)
      let* circuit, graph =
        if Sys.file_exists c then
          let* g = load c in
          Ok ("-", Some (Circuit_io.Aiger.graph_to_string g))
        else Ok (c, None)
      in
      let* _ =
        response_to_result
          (Serve.Client.load conn ~session:s ~circuit ?graph ~priority ())
      in
      Ok ()
  | "approx" ->
      let* s = need "SESSION" session in
      let params =
        {
          Serve.Protocol.metric;
          threshold;
          seed;
          eval_rounds;
          max_iters;
        }
      in
      let* _ =
        response_to_result
          (Serve.Client.request_retry conn
             (Serve.Protocol.Approx
                { session = s; params; deadline_s = deadline }))
      in
      Ok ()
  | "metrics" ->
      let* s = need "SESSION" session in
      let* _ = response_to_result (Serve.Client.metrics conn ~session:s ~metric) in
      Ok ()
  | "cec" ->
      let* s = need "SESSION" session in
      let* _ = response_to_result (Serve.Client.cec conn ~session:s) in
      Ok ()
  | "get" ->
      let* s = need "SESSION" session in
      let* resp = response_to_result (Serve.Client.get conn ~session:s) in
      let* bytes =
        match resp with
        | Serve.Protocol.Ok (_, Some bytes) -> Ok bytes
        | _ -> Error (`Msg "daemon reply carried no circuit")
      in
      (match output with
      | Some path ->
          let* g = failure_to_msg (fun () -> Ok (Circuit_io.Aiger.parse bytes)) in
          save path g
      | None ->
          print_string bytes;
          Ok ())
  | "status" ->
      let* _ = response_to_result (Serve.Client.status conn) in
      Ok ()
  | "evict" ->
      let* s = need "SESSION" session in
      let* _ = response_to_result (Serve.Client.evict conn ~session:s) in
      Ok ()
  | "shutdown" ->
      let* _ = response_to_result (Serve.Client.shutdown conn) in
      Ok ()
  | v ->
      Error
        (`Msg
           (Printf.sprintf
              "unknown verb %s (ping|load|approx|metrics|cec|get|status|evict|shutdown)"
              v))

(* ---------- Cmdliner plumbing ---------- *)

open Cmdliner

let circuit_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT"
         ~doc:"Benchmark name (see $(b,alsrac list)) or a .blif/.bench/.aag file.")

let output_opt =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Write the resulting circuit (.blif, .bench, .aag, .v, .dot).")

let metric_arg =
  Arg.(value & opt string "er" & info [ "m"; "metric" ] ~docv:"METRIC"
         ~doc:"Error metric: er (error rate), med/nmed (mean/normalized mean \
               error distance), mred (mean relative error distance), mse \
               (mean squared error), mhd/nmhd (mean/normalized mean Hamming \
               distance), or the worst-case metrics maxed, maxhd, maxred \
               (certified exactly by the error-computation miter).")

let distr_arg =
  Arg.(value & opt string "unif" & info [ "distr" ] ~docv:"DIST"
         ~doc:"Input distribution of the error measurement (ResubALS \
               --distrType): $(b,unif) for uniform inputs, or a pattern file \
               of `bits weight' lines (one input assignment per line, leftmost \
               bit = first PI) for an enumerated weighted distribution.  Under \
               an enumerated distribution the error is computed exactly over \
               the listed support — no sampling bound is involved.")

let mapping_arg =
  Arg.(value & opt (enum [ ("none", `None); ("asic", `Asic); ("fpga", `Fpga) ]) `None
       & info [ "map" ] ~docv:"TARGET" ~doc:"Also report mapped results (asic or fpga).")

let exits_of_result = function
  | Ok () -> 0
  | Error (`Msg m) ->
      prerr_endline ("alsrac: " ^ m);
      1

let wrap f = Term.(const (fun x -> exits_of_result (f x)))

let list_term = Term.(const (fun () -> exits_of_result (list_cmd ())) $ const ())
let list_cmd' = Cmd.v (Cmd.info "list" ~doc:"List the built-in benchmark suite") list_term

let gen_term =
  Term.(
    const (fun name output -> exits_of_result (gen_cmd name output))
    $ circuit_arg
    $ Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Output file (.blif, .bench, .v, .dot)."))

let gen_cmd' = Cmd.v (Cmd.info "gen" ~doc:"Emit a benchmark circuit to a file") gen_term

let stats_term =
  Term.(
    const (fun spec mapping -> exits_of_result (stats_cmd spec mapping))
    $ circuit_arg $ mapping_arg)

let stats_cmd' = Cmd.v (Cmd.info "stats" ~doc:"Print circuit statistics") stats_term

let opt_term =
  Term.(
    const (fun spec fraig exact_resub output ->
        exits_of_result (opt_cmd spec fraig exact_resub output))
    $ circuit_arg
    $ Arg.(value & flag & info [ "fraig" ]
             ~doc:"Also run simulation-guided exact equivalence merging.")
    $ Arg.(value & flag & info [ "exact-resub" ]
             ~doc:"Append the simulation-guided exact resubstitution pass to \
                   the pipeline: signature-filtered divisors, k-resub (k <= 3) \
                   with simulation don't-cares, every committed substitution \
                   proven equivalent by the CEC portfolio.")
    $ output_opt)

let opt_cmd' =
  Cmd.v (Cmd.info "opt" ~doc:"Exact logic optimization (compress2)") opt_term

let eval_term =
  Term.(
    const (fun original approx metric sample distr ->
        exits_of_result (eval_cmd original approx metric sample distr))
    $ Arg.(required & pos 0 (some string) None & info [] ~docv:"ORIGINAL")
    $ Arg.(required & pos 1 (some string) None & info [] ~docv:"APPROX")
    $ metric_arg
    $ Arg.(value & opt int (1 lsl 17) & info [ "sample" ] ~docv:"N"
             ~doc:"Monte-Carlo rounds when exhaustive evaluation is infeasible.")
    $ distr_arg)

let eval_cmd' =
  Cmd.v (Cmd.info "eval" ~doc:"Measure the error between two circuits") eval_term

let approx_term =
  Term.(
    const
      (fun spec metric threshold method_ seed eval_rounds mapping output journal resume
           guard certify exact_resub jobs distr max_error ->
        exits_of_result
          (approx_cmd spec metric threshold method_ seed eval_rounds mapping output
             journal resume guard certify exact_resub jobs distr max_error))
    $ circuit_arg $ metric_arg
    $ Arg.(value & opt float 0.01 & info [ "t"; "threshold" ] ~docv:"E"
             ~doc:"Error threshold (fraction, e.g. 0.01 for 1%).")
    $ Arg.(value & opt string "alsrac" & info [ "method" ] ~docv:"M"
             ~doc:"Synthesis method: alsrac, sasimi (Su's) or mcmc (Liu's).")
    $ Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"PRNG seed.")
    $ Arg.(value & opt int 4096 & info [ "eval-rounds" ] ~docv:"N"
             ~doc:"Evaluation sample size during synthesis.")
    $ mapping_arg $ output_opt
    $ Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"DIR"
             ~doc:"Checkpoint the run into $(docv) after every accepted change, \
                   so it can be resumed with $(b,--resume) after a crash.")
    $ Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"DIR"
             ~doc:"Resume an interrupted journaled run from $(docv).  The \
                   journal's recorded configuration (metric, threshold, seed, ...) \
                   and original circuit supersede the command line, CIRCUIT \
                   included; the seeded RNG makes the resumed run finish with \
                   the exact circuit of an uninterrupted one.")
    $ Arg.(value & opt bool true & info [ "guard" ] ~docv:"BOOL"
             ~doc:"Guarded transforms: verify structural invariants and \
                   signature consistency after every accepted change, rolling \
                   back and quarantining on violation (default on).")
    $ Arg.(value & flag & info [ "certify-exact" ]
             ~doc:"Machine-check the run's trust assumptions: miter-check every \
                   exact transform application with the verification subsystem \
                   and re-simulate every accepted change's error on independent \
                   patterns, reporting the verdicts.  Observational: never \
                   changes the result circuit.")
    $ Arg.(value & flag & info [ "exact-resub" ]
             ~doc:"Append the simulation-guided exact resubstitution pass to \
                   every inter-iteration and final compress2: k-resub (k <= 3) \
                   over signature-filtered divisors with simulation \
                   don't-cares, every committed substitution proven \
                   equivalent by the CEC portfolio — the flow's error \
                   accounting is untouched.")
    $ Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Worker-pool size for simulation and candidate scoring: 1 \
                   (default) is fully sequential, 0 detects the core count, \
                   N > 1 spawns N-1 worker domains.  Results are bit-identical \
                   at every setting, so $(docv) may also differ between a \
                   journaled run and its $(b,--resume).")
    $ distr_arg
    $ Arg.(value & opt (some float) None & info [ "max-error" ] ~docv:"E"
             ~doc:"Worst-case constraint sugar: synthesize under a maximum \
                   error budget of $(docv), i.e. set the threshold to $(docv) \
                   and the metric to maxed — unless $(b,--metric) already \
                   names a worst-case metric (maxhd, maxred), which is kept.  \
                   Under the uniform distribution the final bound is proven \
                   by the error-computation miter, not sampled."))

let approx_cmd' =
  Cmd.v (Cmd.info "approx" ~doc:"Approximate logic synthesis under an error constraint")
    approx_term

let cec_term =
  Term.(
    const (fun a b seed rounds effort -> exits_of_result (cec_cmd a b seed rounds effort))
    $ Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT_A"
             ~doc:"Benchmark name or circuit file.")
    $ Arg.(required & pos 1 (some string) None & info [] ~docv:"CIRCUIT_B"
             ~doc:"Benchmark name or circuit file with the same PI/PO interface.")
    $ Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S"
             ~doc:"PRNG seed for the refutation patterns (the verdict is \
                   deterministic in the seed).")
    $ Arg.(value & opt int 1024 & info [ "rounds" ] ~docv:"N"
             ~doc:"Random refutation rounds before the proof portfolio runs.")
    $ Arg.(value
           & opt (enum [ ("fast", Verify.Cec.Fast); ("thorough", Verify.Cec.Thorough) ])
               Verify.Cec.Thorough
           & info [ "effort" ] ~docv:"LEVEL"
               ~doc:"Proof effort: fast (bounded, as used in-flow) or thorough."))

let cec_cmd' =
  Cmd.v
    (Cmd.info "cec"
       ~doc:"Combinational equivalence check (miter-based, simulation-only; exit \
             status 0 only on a proven-equivalent verdict)")
    cec_term

let map_term =
  Term.(
    const (fun spec target output -> exits_of_result (map_cmd spec target output))
    $ circuit_arg $ mapping_arg $ output_opt)

let map_cmd' = Cmd.v (Cmd.info "map" ~doc:"Technology mapping (LUT or standard cells)") map_term

let explore_term =
  Term.(
    const
      (fun dir benchmarks ladder seed eval_rounds max_iters shards shard_id jobs quiet
           distr ->
        exits_of_result
          (explore_cmd dir benchmarks ladder seed eval_rounds max_iters shards shard_id
             jobs quiet distr))
    $ Arg.(required & opt (some string) None & info [ "d"; "dir" ] ~docv:"DIR"
             ~doc:"Sweep directory: manifest, per-point results and Pareto front \
                   files live here.  Restarting onto an existing directory \
                   resumes it (the stored manifest supersedes the command \
                   line); completed points are never re-run.")
    $ Arg.(value & opt string "c880,cavlc,ctrl,int2float" & info [ "benchmarks" ]
             ~docv:"NAMES"
             ~doc:"Comma-separated benchmark names (see $(b,alsrac list)).")
    $ Arg.(value & opt string "default" & info [ "ladder" ] ~docv:"SPEC"
             ~doc:"Error-budget ladders: semicolon-separated metric=b1,b2,... \
                   groups, e.g. $(b,er=0.01,0.03;nmed=0.001), or $(b,default) \
                   for the paper-shaped ER/NMED/MRED sweep.")
    $ Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S"
             ~doc:"Base PRNG seed; point $(i,i) runs the flow with seed S+i.")
    $ Arg.(value & opt int 4096 & info [ "eval-rounds" ] ~docv:"N"
             ~doc:"Evaluation sample size per flow.")
    $ Arg.(value & opt int 10000 & info [ "max-iters" ] ~docv:"N"
             ~doc:"Per-point cap on accepted changes.")
    $ Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N"
             ~doc:"Total shards splitting the corpus: shard $(i,s) owns the \
                   points with index = s mod N.  Ownership depends only on the \
                   canonical point index, so any combination of shard runs \
                   over a shared directory converges to byte-identical \
                   fronts.")
    $ Arg.(value & opt int 0 & info [ "shard-id" ] ~docv:"I"
             ~doc:"This process's shard index (0-based).")
    $ Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Concurrent points in this process (0 detects the core \
                   count).  Each point's flow is sequential, so results do \
                   not depend on $(docv).")
    $ Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress per-point progress lines.")
    $ distr_arg)

let explore_cmd' =
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Corpus-scale Pareto exploration: run the approximation flow over \
             benchmark x metric x error-budget points, maintaining anytime \
             area/delay-vs-error Pareto fronts on disk.  Crash-resumable \
             (completed points persist atomically) and shardable across \
             processes; final front files are byte-identical at any \
             --shards/--jobs setting, including across kill and resume")
    explore_term

let socket_arg =
  Arg.(value & opt string "/tmp/alsrac.sock" & info [ "socket" ] ~docv:"PATH"
         ~doc:"Unix-domain socket the daemon listens on.")

let serve_term =
  Term.(
    const
      (fun socket state_dir jobs max_queue max_resident_mb deadline read_timeout
           max_sessions fault_spec log ->
        exits_of_result
          (serve_cmd socket state_dir jobs max_queue max_resident_mb deadline
             read_timeout max_sessions fault_spec log))
    $ socket_arg
    $ Arg.(value & opt string "/tmp/alsrac-state" & info [ "state-dir" ] ~docv:"DIR"
             ~doc:"Session persistence root; sessions found here are resumed \
                   (including interrupted approximations) before the socket opens.")
    $ Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Resident worker-pool size shared by all requests (0 detects \
                   the core count).")
    $ Arg.(value & opt int 32 & info [ "max-queue" ] ~docv:"N"
             ~doc:"Bound on queued requests; overflow is answered with an \
                   overloaded error and a retry-after hint.")
    $ Arg.(value & opt int 512 & info [ "max-resident-mb" ] ~docv:"MB"
             ~doc:"Resident-memory high watermark; past it the coldest idle \
                   sessions are evicted until usage drops to 3/4 of the bound.")
    $ Arg.(value & opt float 30.0 & info [ "deadline" ] ~docv:"S"
             ~doc:"Default per-request deadline; a timed-out approximation is \
                   rolled back to its last checkpoint and reported as a \
                   structured timeout.")
    $ Arg.(value & opt float 30.0 & info [ "read-timeout" ] ~docv:"S"
             ~doc:"Per-connection frame-read deadline.")
    $ Arg.(value & opt int 64 & info [ "max-sessions" ] ~docv:"N"
             ~doc:"Bound on resident sessions.")
    $ Arg.(value & opt string "" & info [ "fault-spec" ] ~docv:"SPEC"
             ~doc:"Deterministic fault injection for resilience testing, e.g. \
                   $(b,short-read\\@2,raise\\@3); see Core.Fault.")
    $ Arg.(value & flag & info [ "log" ] ~doc:"Log daemon events to stderr."))

let serve_cmd' =
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the resident ALS daemon: named sessions keep circuits, fanout \
             and simulation state warm across requests, with per-request \
             deadlines, bounded-queue backpressure and crash-resumable \
             journaled state")
    serve_term

let client_term =
  Term.(
    const
      (fun socket verb session circuit metric threshold seed eval_rounds
           max_iters deadline priority output ->
        exits_of_result
          (client_cmd socket verb session circuit metric threshold seed
             eval_rounds max_iters deadline priority output))
    $ socket_arg
    $ Arg.(required & pos 0 (some string) None & info [] ~docv:"VERB"
             ~doc:"One of: ping, load, approx, metrics, cec, get, status, \
                   evict, shutdown.")
    $ Arg.(value & pos 1 (some string) None & info [] ~docv:"SESSION"
             ~doc:"Session name (most verbs).")
    $ Arg.(value & pos 2 (some string) None & info [] ~docv:"CIRCUIT"
             ~doc:"For $(b,load): benchmark name, or a circuit file whose \
                   contents are shipped to the daemon.")
    $ metric_arg
    $ Arg.(value & opt float 0.01 & info [ "t"; "threshold" ] ~docv:"E"
             ~doc:"Error threshold for $(b,approx).")
    $ Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"PRNG seed for $(b,approx).")
    $ Arg.(value & opt int 4096 & info [ "eval-rounds" ] ~docv:"N"
             ~doc:"Evaluation sample size for $(b,approx).")
    $ Arg.(value & opt int 1000 & info [ "max-iters" ] ~docv:"N"
             ~doc:"Cap on accepted changes for $(b,approx).")
    $ Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"S"
             ~doc:"Per-request deadline override for $(b,approx).")
    $ Arg.(value & opt int 0 & info [ "priority" ] ~docv:"P"
             ~doc:"Session priority for $(b,load): under overload, lower \
                   priorities are shed first.")
    $ output_opt)

let client_cmd'' =
  Cmd.v
    (Cmd.info "client"
       ~doc:"Talk to a running $(b,alsrac serve) daemon (warm requests: the \
             daemon keeps circuits and simulation state resident)")
    client_term

let default =
  Term.(ret (const (`Help (`Pager, None))))

let () =
  ignore wrap;
  let info =
    Cmd.info "alsrac" ~version:"1.0.0"
      ~doc:"Approximate logic synthesis by resubstitution with approximate care sets"
  in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          [ list_cmd'; gen_cmd'; stats_cmd'; opt_cmd'; eval_cmd'; approx_cmd'; map_cmd';
            explore_cmd'; cec_cmd'; serve_cmd'; client_cmd'' ]))
