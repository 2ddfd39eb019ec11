(* Benchmark harness: regenerates every table of the paper's evaluation
   section (Tables III-VII) on the reconstructed benchmark suite, the
   ablations called out in DESIGN.md, and layer benches of the live code
   that write absolute numbers to the tracked BENCH_*.json files.

     dune exec bench/main.exe -- [MODE|all]

   [modes] at the end of this file lists every mode.  Default parameters
   are scaled for a laptop run: a subset of each threshold sweep and one
   seed per configuration.  Set ALSRAC_BENCH_FULL=1 for the paper's full
   sweeps averaged over three seeds, and ALSRAC_BENCH_SMOKE=1 for the
   reduced layer-bench fixtures CI runs.  Every run is deterministic given
   the seed set; a layer bench exits non-zero when one of its checks
   fails. *)

module Graph = Aig.Graph
module Metrics = Errest.Metrics

let full_mode =
  match Sys.getenv_opt "ALSRAC_BENCH_FULL" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

let seeds = if full_mode then [ 1; 2; 3 ] else [ 1 ]

(* ALSRAC_BENCH_JOBS=<n> fans independent sweep points (threshold x seed
   runs) across a worker pool; every run itself stays sequential
   (config.jobs = 1), so per-run results are identical to a serial bench. *)
let bench_jobs =
  match Sys.getenv_opt "ALSRAC_BENCH_JOBS" with
  | Some s -> ( match int_of_string_opt s with Some n when n >= 0 -> n | _ -> 1)
  | None -> 1

let wall () = Parallel.Clock.now_s ()

let er_thresholds =
  (* Paper: 0.1%, 0.3%, 0.5%, 0.8%, 1%, 3%, 5%. *)
  if full_mode then [ 0.001; 0.003; 0.005; 0.008; 0.01; 0.03; 0.05 ]
  else [ 0.001; 0.01; 0.05 ]

let nmed_thresholds =
  (* Paper: 0.00153% ... 0.19531% (eight doublings). *)
  if full_mode then
    [ 0.0000153; 0.0000305; 0.0000610; 0.0001221; 0.0002441; 0.0004883;
      0.0009766; 0.0019531 ]
  else [ 0.0000153; 0.0002441; 0.0019531 ]

let eval_rounds = if full_mode then 8192 else 2048

(* Per-run wall-clock budget in scaled mode; full mode runs to convergence
   (the paper's own runtimes for the large Table VII circuits are hours).
   ALSRAC_BENCH_BUDGET=<seconds> overrides the scaled-mode budget. *)
let max_seconds =
  if full_mode then infinity
  else
    match Sys.getenv_opt "ALSRAC_BENCH_BUDGET" with
    | Some s -> (try float_of_string s with _ -> 150.0)
    | None -> 150.0

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs))

let pct x = 100.0 *. x

(* ---------- Method runners ----------

   Each returns (approximate AIG, CPU seconds).  Wall-clock time is measured
   around the call by the sweep: [runtime_s] is CPU time, and once runs
   share the process with a worker pool the two diverge — speedups are only
   visible on the wall axis. *)

let run_alsrac ~metric ~threshold ~seed g =
  let config =
    { (Core.Config.default ~metric ~threshold) with
      Core.Config.eval_rounds; seed; max_seconds }
  in
  let approx, report = Core.Flow.run ~config g in
  (approx, report.Core.Flow.runtime_s)

let run_sasimi ~metric ~threshold ~seed g =
  let config =
    { (Baselines.Sasimi.default_config ~metric ~threshold) with
      Baselines.Sasimi.eval_rounds; seed; max_seconds }
  in
  let approx, report = Baselines.Sasimi.run ~config g in
  (approx, report.Baselines.Sasimi.runtime_s)

let run_mcmc ~metric ~threshold ~seed g =
  let config =
    { (Baselines.Mcmc.default_config ~metric ~threshold) with
      Baselines.Mcmc.eval_rounds; seed;
      proposals = (if full_mode then 8000 else 3000) }
  in
  let approx, report = Baselines.Mcmc.run ~config g in
  (approx, report.Baselines.Mcmc.runtime_s)

(* ---------- Mapped quality ---------- *)

type mapped_ratios = { area : float; delay : float }

let asic_ratios ~original approx =
  let m0 = Techmap.Cellmap.run original and m1 = Techmap.Cellmap.run approx in
  {
    area = Techmap.Mapped.area m1 /. Float.max 1.0 (Techmap.Mapped.area m0);
    delay = Techmap.Mapped.delay m1 /. Float.max 0.001 (Techmap.Mapped.delay m0);
  }

let fpga_ratios ~original approx =
  let m0 = Techmap.Lutmap.run original and m1 = Techmap.Lutmap.run approx in
  {
    area =
      float_of_int (Techmap.Mapped.num_cells m1)
      /. float_of_int (max 1 (Techmap.Mapped.num_cells m0));
    delay =
      float_of_int (Techmap.Mapped.depth m1)
      /. float_of_int (max 1 (Techmap.Mapped.depth m0));
  }

(* Run [f] with [Some pool] when ALSRAC_BENCH_JOBS asks for one. *)
let with_bench_pool f =
  if bench_jobs > 1 then
    Parallel.Pool.with_pool ~jobs:bench_jobs (fun p -> f (Some p))
  else f None

type sweep_result = {
  s_area : float;
  s_delay : float;
  s_cpu : float;  (** mean CPU seconds per run *)
  s_wall : float;  (** mean wall-clock seconds per run *)
  s_capped : bool;  (** some run hit the scaled-mode budget *)
}

(* Average a method over thresholds x seeds on one circuit.  Every
   (threshold, seed) point is an independent run; with [?pool] the points
   execute concurrently (chunk size 1 — one run per task) and, because each
   run is self-contained and deterministic given its seed, the averaged
   results are identical to the serial bench.  [s_capped] marks sweeps in
   which at least one run hit the budget (reported with a '*' — full mode
   never truncates). *)
let sweep ?pool ~runner ~ratios ~metric ~thresholds entry =
  let g = (entry : Circuits.Suite.entry).Circuits.Suite.build () in
  (* Both methods start from, and are measured against, the exactly
     optimized circuit (the paper pre-optimizes its benchmarks with SIS). *)
  let original = Aig.Resyn.compress2 (Graph.compact g) in
  let g = original in
  let points =
    Array.of_list
      (List.concat_map
         (fun threshold -> List.map (fun seed -> (threshold, seed)) seeds)
         thresholds)
  in
  let runs =
    Parallel.Chunk.map ?pool ~chunk_size:1 ~n:(Array.length points) (fun i ->
        let threshold, seed = points.(i) in
        let w0 = wall () in
        let approx, cpu = runner ~metric ~threshold ~seed g in
        let w = wall () -. w0 in
        let r = ratios ~original approx in
        (r.area, r.delay, cpu, w))
  in
  let runs = Array.to_list runs in
  let col f = mean (List.map f runs) in
  {
    s_area = col (fun (a, _, _, _) -> a);
    s_delay = col (fun (_, d, _, _) -> d);
    s_cpu = col (fun (_, _, c, _) -> c);
    s_wall = col (fun (_, _, _, w) -> w);
    s_capped =
      List.exists (fun (_, _, c, w) -> Float.max c w >= max_seconds -. 1.0) runs;
  }

(* ---------- Table III ---------- *)

let table3 () =
  Printf.printf
    "\n== Table III: benchmark suite (reconstructed; see DESIGN.md section 2) ==\n";
  Printf.printf "%-10s %-22s %6s %6s | %9s %7s | %6s %6s\n" "circuit" "class" "ands"
    "depth" "cell-area" "delay" "LUT6" "Ldep";
  List.iter
    (fun (e : Circuits.Suite.entry) ->
      let g = e.Circuits.Suite.build () in
      let asic = Techmap.Cellmap.run g in
      let fpga = Techmap.Lutmap.run g in
      Printf.printf "%-10s %-22s %6d %6d | %9.1f %7.2f | %6d %6d\n%!"
        e.Circuits.Suite.name
        (Circuits.Suite.klass_to_string e.Circuits.Suite.klass)
        (Graph.num_ands g) (Aig.Topo.depth g) (Techmap.Mapped.area asic)
        (Techmap.Mapped.delay asic)
        (Techmap.Mapped.num_cells fpga)
        (Techmap.Mapped.depth fpga))
    Circuits.Suite.all

(* ---------- Tables IV / V: ALSRAC vs Su on ASIC ---------- *)

let versus_table ~title ~paper_note ~entries ~metric ~thresholds ~ratios
    ~baseline_name ~baseline =
  Printf.printf "\n== %s ==\n(%s)\n" title paper_note;
  Printf.printf "%-10s | %9s %9s | %9s %9s | %8s %8s | %8s %8s\n" "circuit"
    "ALSRAC-a" (baseline_name ^ "-a") "ALSRAC-d" (baseline_name ^ "-d") "cpu-ALS"
    "wall-ALS"
    ("cpu-" ^ baseline_name)
    ("wall-" ^ baseline_name);
  let acc = ref [] in
  with_bench_pool (fun pool ->
      List.iter
        (fun entry ->
          let a = sweep ?pool ~runner:run_alsrac ~ratios ~metric ~thresholds entry in
          let b = sweep ?pool ~runner:baseline ~ratios ~metric ~thresholds entry in
          acc := (a, b) :: !acc;
          Printf.printf
            "%-10s | %8.2f%% %8.2f%% | %8.2f%% %8.2f%% | %6.1fs%s %6.1fs%s | \
             %6.1fs%s %6.1fs%s\n\
             %!"
            entry.Circuits.Suite.name (pct a.s_area) (pct b.s_area)
            (pct a.s_delay) (pct b.s_delay) a.s_cpu
            (if a.s_capped then "*" else " ")
            a.s_wall
            (if a.s_capped then "*" else " ")
            b.s_cpu
            (if b.s_capped then "*" else " ")
            b.s_wall
            (if b.s_capped then "*" else " "))
        entries);
  let col f = mean (List.map f !acc) in
  Printf.printf
    "%-10s | %8.2f%% %8.2f%% | %8.2f%% %8.2f%% | %7.1fs %7.1fs | %7.1fs %7.1fs\n"
    "arithmean"
    (pct (col (fun (a, _) -> a.s_area)))
    (pct (col (fun (_, b) -> b.s_area)))
    (pct (col (fun (a, _) -> a.s_delay)))
    (pct (col (fun (_, b) -> b.s_delay)))
    (col (fun (a, _) -> a.s_cpu))
    (col (fun (a, _) -> a.s_wall))
    (col (fun (_, b) -> b.s_cpu))
    (col (fun (_, b) -> b.s_wall));
  Printf.printf "('*' = at least one run hit the %gs scaled-mode budget)\n"
    max_seconds

let table4 () =
  versus_table
    ~title:
      "Table IV: ALSRAC vs Su's method under ER constraint (ASIC, MCNC-class cells)"
    ~paper_note:
      (Printf.sprintf
         "area/delay ratios averaged over ER thresholds %s, %d seed(s); paper \
          arithmeans: ALSRAC 80.11%% vs Su 87.45%% area"
         (String.concat ", "
            (List.map (fun t -> Printf.sprintf "%g%%" (pct t)) er_thresholds))
         (List.length seeds))
    ~entries:(Circuits.Suite.of_klass Circuits.Suite.Iscas_arith)
    ~metric:Metrics.Er ~thresholds:er_thresholds ~ratios:asic_ratios
    ~baseline_name:"Su" ~baseline:run_sasimi

let table5 () =
  let entries = List.filter_map Circuits.Suite.find Circuits.Suite.nmed_set in
  versus_table
    ~title:"Table V: ALSRAC vs Su's method under NMED constraint (ASIC)"
    ~paper_note:
      (Printf.sprintf
         "ratios averaged over NMED thresholds %s, %d seed(s); paper arithmeans: \
          ALSRAC 39.64%% vs Su 48.43%% area"
         (String.concat ", "
            (List.map (fun t -> Printf.sprintf "%.5f%%" (pct t)) nmed_thresholds))
         (List.length seeds))
    ~entries ~metric:Metrics.Nmed ~thresholds:nmed_thresholds ~ratios:asic_ratios
    ~baseline_name:"Su" ~baseline:run_sasimi

(* ---------- Tables VI / VII: ALSRAC vs Liu on FPGA ---------- *)

let table6 () =
  versus_table
    ~title:"Table VI: ALSRAC vs Liu's method under ER = 1% (FPGA, 6-LUT)"
    ~paper_note:
      "EPFL random/control class; paper arithmeans: ALSRAC 74.30% vs Liu 80.25% LUTs"
    ~entries:(Circuits.Suite.of_klass Circuits.Suite.Epfl_control)
    ~metric:Metrics.Er ~thresholds:[ 0.01 ] ~ratios:fpga_ratios ~baseline_name:"Liu"
    ~baseline:run_mcmc

let table7 () =
  let entries =
    List.filter
      (fun (e : Circuits.Suite.entry) -> e.Circuits.Suite.name <> "hyp")
      (Circuits.Suite.of_klass Circuits.Suite.Epfl_arith)
  in
  versus_table
    ~title:"Table VII: ALSRAC vs Liu's method under MRED = 0.19531% (FPGA, 6-LUT)"
    ~paper_note:
      "EPFL arithmetic class, hyp excluded exactly as in the paper; paper \
       arithmeans (w/o max): ALSRAC 56.20% vs Liu 63.76% LUTs"
    ~entries ~metric:Metrics.Mred ~thresholds:[ 0.0019531 ] ~ratios:fpga_ratios
    ~baseline_name:"Liu" ~baseline:run_mcmc

(* ---------- Bechamel microbenchmarks ---------- *)

(* Bechamel's estimate of one call of [f] in ns, by OLS over the monotonic
   clock's samples. *)
let ns_per_run f =
  let open Bechamel in
  let test = Test.make ~name:"run" (Staged.stage f) in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let clock = Toolkit.Instance.monotonic_clock in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let analysis = Analyze.all ols clock (Benchmark.all cfg [ clock ] test) in
  match Hashtbl.fold (fun _ r acc -> Analyze.OLS.estimates r :: acc) analysis [] with
  | [ Some [ est ] ] -> Some est
  | _ -> None

let micro () =
  Printf.printf "\n== Microbenchmarks (bechamel, monotonic clock) ==\n%!";
  (* Shared fixtures, built once. *)
  let mtp8 = Circuits.Multipliers.array_mult ~width:8 in
  let rng = Logic.Rng.create 42 in
  let pats2048 = Sim.Patterns.random rng ~npis:16 ~len:2048 in
  let sigs = Sim.Engine.simulate mtp8 pats2048 in
  let golden = Sim.Engine.po_values mtp8 sigs in
  let cavlc = Circuits.Epfl_control.cavlc () in
  let adder16 = Circuits.Adders.ripple_carry ~width:16 in
  let tt10 = Logic.Truth.of_fun 10 (fun m -> (m * 2654435761) land 0x400 <> 0) in
  let and_nodes =
    let acc = ref [] in
    Graph.iter_ands mtp8 (fun id -> acc := id :: !acc);
    Array.of_list !acc
  in
  let mid_node = and_nodes.(Array.length and_nodes / 2) in
  let flip = [| (mid_node, Logic.Bitvec.lognot sigs.(mid_node)) |] in
  let batch = Errest.Batch.create mtp8 ~metric:Metrics.Nmed ~golden ~base:sigs in
  let care_cfg = Core.Config.default ~metric:Metrics.Er ~threshold:0.01 in
  let tests =
    [
      (* One kernel per table: the dominant inner operation each table's
         regeneration spends its time in. *)
      ("t3-kernel: cellmap mtp8", fun () -> ignore (Techmap.Cellmap.run mtp8));
      ( "t4-kernel: LAC generation (N=32, mtp8)",
        fun () ->
          let pats = Sim.Patterns.random (Logic.Rng.create 7) ~npis:16 ~len:32 in
          let s = Sim.Engine.simulate mtp8 pats in
          ignore (Core.Lac.generate mtp8 ~config:care_cfg ~sigs:s ~rounds:32) );
      ( "t5-kernel: batch error estimation (full flip, 2048 rounds)",
        fun () -> ignore (Errest.Batch.candidate_errors batch flip) );
      ("t6-kernel: lutmap cavlc", fun () -> ignore (Techmap.Lutmap.run cavlc));
      ( "t7-kernel: NMED measurement (2048 rounds)",
        fun () -> ignore (Metrics.nmed ~golden ~approx:golden) );
      (* Engine kernels. *)
      ("simulate mtp8 x2048 rounds", fun () -> ignore (Sim.Engine.simulate mtp8 pats2048));
      ("compress2 adder16", fun () -> ignore (Aig.Resyn.compress2 adder16));
      ("cut enumeration k=6 mtp8", fun () -> ignore (Aig.Cut.enumerate mtp8 ~k:6 ()));
      ( "isop 10-var table",
        fun () -> ignore (Logic.Isop.compute ~on:tt10 ~dc:(Logic.Truth.const0 10)) );
      ( "espresso 10-var table",
        fun () -> ignore (Logic.Espresso.minimize ~on:tt10 ~dc:(Logic.Truth.const0 10)) );
      (* Ablation: the ODC-aware care sets' backward pass. *)
      ( "ablation: observability masks (backward pass)",
        fun () -> ignore (Errest.Observability.masks mtp8 ~sigs) );
      ("fraig-lite mtp8", fun () -> ignore (Sim.Fraig.run mtp8));
    ]
  in
  List.iter
    (fun (name, f) ->
      match ns_per_run f with
      | Some est -> Printf.printf "%-58s %14.1f ns/run\n%!" name est
      | None -> Printf.printf "%-58s (no estimate)\n%!" name)
    tests

(* ---------- Pool microbenchmark (DESIGN.md section 8) ----------

   Wall-clock speedup of the worker pool on the two kernels the flow
   parallelizes — word-sharded bit-parallel simulation and batch candidate
   scoring — at jobs = 1/2/4/8 on the largest suite circuit.  Each cell is
   the best of three runs; the jobs = 1 row is the exact sequential path
   (the pool runs tasks eagerly on the caller), so speedups are against the
   true serial baseline.  Results are recorded in EXPERIMENTS.md. *)

let pool_bench () =
  Printf.printf "\n== Pool microbenchmark: simulate + candidate scoring ==\n";
  Printf.printf "(host reports %d core(s); jobs beyond that only measure overhead)\n%!"
    (Parallel.Pool.cpu_count ());
  let name, g =
    List.fold_left
      (fun best (e : Circuits.Suite.entry) ->
        let g = e.Circuits.Suite.build () in
        match best with
        | Some (_, bg) when Graph.num_ands bg >= Graph.num_ands g -> best
        | _ -> Some (e.Circuits.Suite.name, g))
      None Circuits.Suite.all
    |> Option.get
  in
  let rounds = 8192 in
  Printf.printf "circuit: %s (%d ANDs), %d evaluation rounds\n%!" name
    (Graph.num_ands g) rounds;
  let rng = Logic.Rng.create 42 in
  let pats = Sim.Patterns.random rng ~npis:(Graph.num_pis g) ~len:rounds in
  let sigs = Sim.Engine.simulate g pats in
  let golden = Sim.Engine.po_values g sigs in
  let batch = Errest.Batch.create g ~metric:Metrics.Er ~golden ~base:sigs in
  let ands =
    let acc = ref [] in
    Graph.iter_ands g (fun id -> acc := id :: !acc);
    Array.of_list (List.rev !acc)
  in
  let nspecs = min 256 (Array.length ands) in
  let stride = max 1 (Array.length ands / nspecs) in
  (* Flipping a node's signature forces a full TFO re-simulation per
     candidate — the worst (and most common) case in the flow. *)
  let specs =
    Array.init nspecs (fun i ->
        let id = ands.(i * stride) in
        (id, Logic.Bitvec.lognot sigs.(id)))
  in
  let ref_sigs = Sim.Engine.simulate g pats in
  let ref_errs = Errest.Batch.candidate_errors batch specs in
  let best_of_3 f =
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = wall () in
      f ();
      best := Float.min !best (wall () -. t0)
    done;
    !best
  in
  Printf.printf "%-34s %5s %10s %8s\n" "kernel" "jobs" "best wall" "speedup";
  let report kernel ~check f =
    let base = ref nan in
    List.iter
      (fun jobs ->
        Parallel.Pool.with_pool ~jobs (fun pool ->
            let t = best_of_3 (fun () -> f pool) in
            if jobs = 1 then base := t;
            let ok = check pool in
            Printf.printf "%-34s %5d %9.4fs %7.2fx%s\n%!" kernel jobs t
              (!base /. t)
              (if ok then "" else "  DETERMINISM MISMATCH");
            if jobs = 4 then
              Printf.printf "%-34s %5s %s\n" "" ""
                (Parallel.Pool.summary (Parallel.Pool.stats pool))))
      [ 1; 2; 4; 8 ]
  in
  report
    (Printf.sprintf "simulate (%d rounds)" rounds)
    ~check:(fun pool ->
      let s = Sim.Engine.simulate ~pool g pats in
      Array.for_all2 Logic.Bitvec.equal s ref_sigs)
    (fun pool -> ignore (Sim.Engine.simulate ~pool g pats));
  report
    (Printf.sprintf "candidate scoring (%d specs)" nspecs)
    ~check:(fun pool ->
      Errest.Batch.candidate_errors ~pool batch specs = ref_errs)
    (fun pool -> ignore (Errest.Batch.candidate_errors ~pool batch specs))

(* ---------- Scoring-kernel microbenchmark (DESIGN.md section 10) ----------

   Candidates per second through [Errest.Batch] — sparse frontier,
   difference-mask early exit, incremental metric deltas — timed through
   [ns_per_run] on two candidate mixes: the LAC generator's own candidates
   and a synthetic stress mix.  test_errest ("differential") holds the
   kernel's errors on both kinds of candidate [Float.equal] to a full
   re-simulation.

   Writes BENCH_scoring.json.  Smoke mode (ALSRAC_BENCH_SMOKE=1) shrinks
   the fixture.  Exits non-zero if a row has no positive estimate. *)

let smoke_mode =
  match Sys.getenv_opt "ALSRAC_BENCH_SMOKE" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

type scoring_row = {
  r_circuit : string;
  r_metric : string;
  r_workload : string;
  r_rounds : int;
  r_nspecs : int;
  r_cps : float;  (** candidates/second *)
  r_mean_frontier : float;  (** frontier nodes recomputed per candidate *)
  r_early_exit_rate : float;
}

(* The synthetic stress mix, four candidate classes per target in rotation:
   divisor copy, divisor complement, sparse diff (the target's signature
   erring on a handful of rounds), and a full signature flip (the worst
   case: every TFO word changes). *)
let stress_specs rng g ~base ~rounds ~nspecs =
  let ands =
    let acc = ref [] in
    Graph.iter_ands g (fun id -> acc := id :: !acc);
    Array.of_list (List.rev !acc)
  in
  let n = min nspecs (4 * Array.length ands) in
  let sparse_diff id =
    let v = Logic.Bitvec.copy base.(id) in
    for _ = 1 to 8 do
      let m = Logic.Rng.int rng rounds in
      Logic.Bitvec.set v m (not (Logic.Bitvec.get v m))
    done;
    v
  in
  Array.init n (fun i ->
      let id = ands.((i / 4 * (max 1 (4 * Array.length ands / (n + 4)))) mod Array.length ands) in
      match i mod 4 with
      | 0 -> (id, Logic.Bitvec.copy base.(Logic.Rng.int rng (max 1 id)))
      | 1 -> (id, Logic.Bitvec.lognot base.(Logic.Rng.int rng (max 1 id)))
      | 2 -> (id, sparse_diff id)
      | _ -> (id, Logic.Bitvec.lognot base.(id)))

(* The flow's real workload: candidates from the actual LAC generator on a
   fresh care set, with their signatures evaluated exactly the way
   [Core.Flow] builds scoring specs.  Such candidates agree with the target
   on the care patterns, so their evaluation-set differences are sparse —
   the case the event-driven kernel is built for. *)
let lac_specs rng g ~metric ~base ~nspecs =
  let care_rounds = 32 in
  let care_pats = Sim.Patterns.random rng ~npis:(Graph.num_pis g) ~len:care_rounds in
  let care_sigs = Sim.Engine.simulate g care_pats in
  let config = Core.Config.default ~metric ~threshold:0.01 in
  let lacs = Core.Lac.generate g ~config ~sigs:care_sigs ~rounds:care_rounds in
  let specs =
    List.map
      (fun (lac : Core.Lac.t) ->
        let pos_sigs = Array.map (fun d -> base.(d)) lac.Core.Lac.divisors in
        (lac.Core.Lac.target, Logic.Cover.eval_sigs lac.Core.Lac.cover ~pos_sigs))
      lacs
  in
  Array.of_list (List.filteri (fun i _ -> i < nspecs) specs)

let scoring_row (e : Circuits.Suite.entry) ~metric ~workload ~rounds ~nspecs =
  let g = e.Circuits.Suite.build () in
  let rng = Logic.Rng.create 42 in
  let pats = Sim.Patterns.random rng ~npis:(Graph.num_pis g) ~len:rounds in
  let base = Sim.Engine.simulate g pats in
  let golden = Sim.Engine.po_values g base in
  let specs =
    match workload with
    | `Lac -> lac_specs rng g ~metric ~base ~nspecs
    | `Stress -> stress_specs rng g ~base ~rounds ~nspecs
  in
  let n = Array.length specs in
  if n = 0 then failwith ("scoring bench: no candidates for " ^ e.Circuits.Suite.name);
  let batch = Errest.Batch.create g ~metric ~golden ~base in
  let ns = ns_per_run (fun () -> ignore (Errest.Batch.candidate_errors batch specs)) in
  let s = Errest.Batch.stats batch in
  let scored = float_of_int (max 1 s.Errest.Batch.scored) in
  {
    r_circuit = e.Circuits.Suite.name;
    r_metric = Metrics.kind_to_string metric;
    r_workload = (match workload with `Lac -> "lac" | `Stress -> "stress");
    r_rounds = rounds;
    r_nspecs = n;
    r_cps = (match ns with Some ns -> 1e9 *. float_of_int n /. ns | None -> Float.nan);
    r_mean_frontier = float_of_int s.Errest.Batch.frontier_nodes /. scored;
    r_early_exit_rate = float_of_int s.Errest.Batch.early_exits /. scored;
  }

let scoring_json rows =
  let row r =
    Printf.sprintf
      "  {\"circuit\": \"%s\", \"metric\": \"%s\", \"workload\": \"%s\", \
       \"rounds\": %d, \"nspecs\": %d, \"candidates_per_s\": %.1f, \
       \"mean_frontier\": %.1f, \"early_exit_rate\": %.4f}"
      r.r_circuit r.r_metric r.r_workload r.r_rounds r.r_nspecs r.r_cps
      r.r_mean_frontier r.r_early_exit_rate
  in
  Printf.sprintf "{\"mode\": \"%s\", \"rows\": [\n%s\n]}\n"
    (if smoke_mode then "smoke" else "full")
    (String.concat ",\n" (List.map row rows))

let scoring () =
  Printf.printf "\n== Scoring-kernel microbenchmark: Errest.Batch candidates/s ==\n%!";
  let fixtures =
    if smoke_mode then
      [
        ("c880", Metrics.Er, `Lac, 512, 64);
        ("c880", Metrics.Er, `Stress, 512, 64);
        ("c1908", Metrics.Mred, `Lac, 512, 64);
        ("mtp8", Metrics.Nmed, `Stress, 512, 64);
      ]
    else
      [
        (* The flow's real workload: LAC-generator candidates. *)
        ("c880", Metrics.Er, `Lac, 8192, 256);
        ("c7552", Metrics.Er, `Lac, 8192, 256);
        ("mtp8", Metrics.Nmed, `Lac, 8192, 256);
        ("c1908", Metrics.Mred, `Lac, 8192, 256);
        (* Synthetic stress mix, including worst-case full flips. *)
        ("c880", Metrics.Er, `Stress, 8192, 256);
        ("mtp8", Metrics.Nmed, `Stress, 8192, 256);
      ]
  in
  let rows =
    List.map
      (fun (name, metric, workload, rounds, nspecs) ->
        match Circuits.Suite.find name with
        | None -> failwith ("scoring bench: unknown circuit " ^ name)
        | Some e ->
            let r = scoring_row e ~metric ~workload ~rounds ~nspecs in
            Printf.printf
              "%-8s %-5s %-7s %5d rounds %4d cands | %9.0f cands/s | frontier %7.1f  \
               early-exit %5.1f%%\n\
               %!"
              r.r_circuit r.r_metric r.r_workload r.r_rounds r.r_nspecs r.r_cps
              r.r_mean_frontier (100.0 *. r.r_early_exit_rate);
            r)
      fixtures
  in
  let out = open_out "BENCH_scoring.json" in
  output_string out (scoring_json rows);
  close_out out;
  Printf.printf "wrote BENCH_scoring.json\n%!";
  if List.exists (fun r -> not (r.r_cps > 0.0)) rows then begin
    Printf.eprintf "scoring bench: a row has no positive estimate\n";
    exit 1
  end

(* ---------- Serve benchmark (DESIGN.md section 11) ----------

   Warm (resident daemon) vs cold (one CLI process per query) latency for
   the same question: the error of a session's current circuit against its
   original.  The daemon keeps the parsed AIG, evaluation patterns and
   golden output signatures resident, so a warm [metrics] request is one
   socket round-trip plus a per-revision cache probe; the cold path pays
   process startup, AIGER parsing and a fresh simulation on every query.

   Writes BENCH_serve.json.  Smoke mode (ALSRAC_BENCH_SMOKE=1, used by CI)
   shrinks the iteration counts; both modes exit non-zero when the warm P50
   is not at least 5x better than the cold P50. *)

let percentile xs p =
  let n = Array.length xs in
  let xs = Array.copy xs in
  Array.sort compare xs;
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
  xs.(max 0 (min (n - 1) rank))

let serve_bench () =
  Printf.printf "\n== Serve benchmark: warm resident daemon vs cold CLI ==\n%!";
  let warm_iters = if smoke_mode then 20 else 100 in
  let cold_iters = if smoke_mode then 3 else 10 in
  let circuit = "cavlc" and threshold = 0.05 in
  let g =
    match Circuits.Suite.find circuit with
    | Some e -> e.Circuits.Suite.build ()
    | None -> failwith ("serve bench: unknown circuit " ^ circuit)
  in
  let bytes = Circuit_io.Aiger.graph_to_string g in
  let dir = Filename.temp_file "alsrac_bench" "" ^ ".d" in
  Unix.mkdir dir 0o755;
  let socket =
    (* [temp_file] reserves a short path (sockets are length-limited); the
       placeholder is removed so the daemon can bind there. *)
    let p = Filename.temp_file "als" ".sock" in
    Sys.remove p;
    p
  in
  let cfg =
    { (Serve.Daemon.default ~socket ~state_dir:(Filename.concat dir "state")) with
      Serve.Daemon.default_deadline_s = 300.0 }
  in
  let daemon = Thread.create Serve.Daemon.run cfg in
  let conn = Serve.Client.connect ~path:socket () in
  let finally () =
    (try ignore (Serve.Client.shutdown conn) with _ -> ());
    Thread.join daemon
  in
  Fun.protect ~finally @@ fun () ->
  let expect what = function
    | Serve.Protocol.Ok (kvs, blob) -> (kvs, blob)
    | Serve.Protocol.Err { detail; _ } ->
        failwith (Printf.sprintf "serve bench: %s failed: %s" what detail)
  in
  ignore (expect "load" (Serve.Client.load conn ~session:"bench" ~circuit:"-" ~graph:bytes ()));
  let params =
    { Serve.Protocol.metric = Metrics.Er; threshold; seed = 1;
      eval_rounds = 1024; max_iters = 1000 }
  in
  ignore (expect "approx" (Serve.Client.approx conn ~session:"bench" ~params ()));
  (* First metrics call fills the per-revision cache; steady-state warm
     requests are what a resident client observes. *)
  ignore (expect "metrics" (Serve.Client.metrics conn ~session:"bench" ~metric:Metrics.Er));
  let warm =
    Array.init warm_iters (fun _ ->
        let t0 = wall () in
        ignore
          (expect "metrics" (Serve.Client.metrics conn ~session:"bench" ~metric:Metrics.Er));
        wall () -. t0)
  in
  let current =
    match expect "get" (Serve.Client.get conn ~session:"bench") with
    | _, Some blob -> blob
    | _, None -> failwith "serve bench: get returned no graph"
  in
  let write name data =
    let p = Filename.concat dir name in
    let oc = open_out_bin p in
    output_string oc data;
    close_out oc;
    p
  in
  let orig_f = write "original.aag" bytes and cur_f = write "current.aag" current in
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/alsrac.exe"
  in
  let cold_kind, cold_once =
    if Sys.file_exists exe then
      ( "cli",
        fun () ->
          let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
          let pid =
            Unix.create_process exe
              [| exe; "eval"; orig_f; cur_f; "-m"; "er"; "--sample"; "1024" |]
              Unix.stdin null null
          in
          let _, status = Unix.waitpid [] pid in
          Unix.close null;
          match status with
          | Unix.WEXITED 0 -> ()
          | _ -> failwith "serve bench: cold CLI eval failed" )
    else
      ( "in-process",
        (* No CLI binary next to the bench (e.g. a partial build): fall back
           to the same work in-process — parse both circuits and evaluate
           from scratch.  This underestimates the cold cost (no process
           startup), so the 5x gate is conservative. *)
        fun () ->
          let o = Circuit_io.Aiger.parse bytes
          and a = Circuit_io.Aiger.parse current in
          ignore (Metrics.evaluate ~sample:1024 Metrics.Er ~original:o ~approx:a) )
  in
  let cold =
    Array.init cold_iters (fun _ ->
        let t0 = wall () in
        cold_once ();
        wall () -. t0)
  in
  let ms xs q = 1000.0 *. percentile xs q in
  let wp50 = ms warm 50.0 and wp95 = ms warm 95.0 in
  let cp50 = ms cold 50.0 and cp95 = ms cold 95.0 in
  let speedup = cp50 /. Float.max 1e-6 wp50 in
  Printf.printf
    "%-8s warm (%d reqs): P50 %7.3fms  P95 %7.3fms | cold-%s (%d runs): P50 \
     %7.1fms  P95 %7.1fms | warm is %.0fx faster\n%!"
    circuit warm_iters wp50 wp95 cold_kind cold_iters cp50 cp95 speedup;
  let out = open_out "BENCH_serve.json" in
  Printf.fprintf out
    "{\"mode\": \"%s\", \"circuit\": \"%s\", \"threshold\": %g,\n\
    \ \"warm_iters\": %d, \"warm_p50_ms\": %.3f, \"warm_p95_ms\": %.3f,\n\
    \ \"cold_kind\": \"%s\", \"cold_iters\": %d, \"cold_p50_ms\": %.1f, \
     \"cold_p95_ms\": %.1f,\n\
    \ \"speedup_p50\": %.1f}\n"
    (if smoke_mode then "smoke" else "full")
    circuit threshold warm_iters wp50 wp95 cold_kind cold_iters cp50 cp95 speedup;
  close_out out;
  Printf.printf "wrote BENCH_serve.json\n%!";
  if speedup < 5.0 then begin
    Printf.eprintf
      "serve bench: warm P50 is only %.1fx better than cold (need >= 5x)\n" speedup;
    exit 1
  end

(* ---------- Ablation: ALSRAC design choices (DESIGN.md section 5) ---------- *)

let ablations () =
  Printf.printf "\n== Ablations (wal8, NMED <= 0.1%%) ==\n%!";
  let g = Circuits.Multipliers.wallace ~width:8 in
  let base = Core.Config.default ~metric:Metrics.Nmed ~threshold:0.001 in
  let variants =
    [
      ("default (N=32, compress2)", base);
      ("no inter-iteration resyn", { base with Core.Config.resyn = Core.Config.No_resyn });
      ("light resyn only", { base with Core.Config.resyn = Core.Config.Light });
      ("fixed small care set (N=8)", { base with Core.Config.sim_rounds = 8 });
      ("large care set (N=256)", { base with Core.Config.sim_rounds = 256 });
      ("L=4 LACs per node", { base with Core.Config.lac_limit = 4 });
      ("ODC-aware care sets", { base with Core.Config.use_odc = true });
      ("no depth guard", { base with Core.Config.max_depth_growth = infinity });
    ]
  in
  List.iter
    (fun (name, config) ->
      let config = { config with Core.Config.eval_rounds; seed = 1; max_seconds } in
      let approx, report = Core.Flow.run ~config g in
      let exact = Metrics.evaluate Metrics.Nmed ~original:g ~approx in
      Printf.printf "%-28s ands %3d -> %3d (%.1f%%), NMED %.4f%%, %.1fs\n%!" name
        report.Core.Flow.input_ands report.Core.Flow.output_ands
        (pct
           (float_of_int report.Core.Flow.output_ands
           /. float_of_int report.Core.Flow.input_ands))
        (pct exact) report.Core.Flow.runtime_s)
    variants

(* ---------- Explore bench: sweep determinism ----------

   Two greedy corpus sweeps over the same manifest, at jobs=1 and at jobs=2
   into a fresh directory: every front file must be byte-identical (exit 1
   otherwise). *)

let fronts_identical dir_a dir_b =
  let ls d = Sys.readdir (Filename.concat d "fronts") |> Array.to_list |> List.sort compare in
  let fa = ls dir_a and fb = ls dir_b in
  fa = fb
  && List.for_all
       (fun f ->
         Circuit_io.Atomic_file.read (Filename.concat (Filename.concat dir_a "fronts") f)
         = Circuit_io.Atomic_file.read (Filename.concat (Filename.concat dir_b "fronts") f))
       fa

let explore_bench () =
  Printf.printf "\n== Explore: corpus sweep determinism ==\n%!";
  let benchmarks =
    if smoke_mode then [ "ctrl"; "int2float" ]
    else [ "c880"; "cavlc"; "ctrl"; "int2float" ]
  in
  let ladders =
    [ { Explore.Ladder.metric = Metrics.Er;
        budgets = (if smoke_mode then [ 0.01; 0.05 ] else [ 0.001; 0.01; 0.05 ]) } ]
  in
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "alsrac-bench-explore-%d" (Unix.getpid ()))
  in
  Circuit_io.Atomic_file.rm_rf root;
  Unix.mkdir root 0o755;
  let sweep jobs =
    let dir = Filename.concat root (Printf.sprintf "greedy-j%d" jobs) in
    let spec =
      {
        Explore.Sweep.dir;
        benchmarks;
        ladders;
        seed = 1;
        eval_rounds = (if smoke_mode then 256 else 2048);
        max_iters = (if smoke_mode then 5 else 50);
        shards = 1;
        shard_id = 0;
        jobs;
        distr = Errest.Distr.Unif;
      }
    in
    let t0 = wall () in
    match Explore.Sweep.run spec with
    | Error e ->
        Printf.eprintf "explore bench: jobs=%d sweep failed: %s\n" jobs e;
        exit 1
    | Ok p ->
        Printf.printf "greedy/j%d %d points in %.1fs wall\n%!" jobs
          p.Explore.Sweep.total (wall () -. t0);
        dir
  in
  let j1 = sweep 1 in
  let j2 = sweep 2 in
  let identical = fronts_identical j1 j2 in
  Printf.printf "determinism: jobs=1 vs jobs=2 front files %s\n%!"
    (if identical then "byte-identical" else "DIFFER");
  Circuit_io.Atomic_file.rm_rf root;
  if not identical then begin
    Printf.eprintf "explore bench: fronts are not jobs-invariant\n";
    exit 1
  end

(* ---------- Max-error certification microbenchmark ----------

   Worst-case synthesis splits into a cheap sampled phase (the maximum
   over simulated rounds — a lower bound on the truth) and the exact
   error-computation-miter certification that closes the gap
   (Errest.Maxerr: violation miter + witness refinement, no SAT).  For
   each fixture a max-metric flow first shrinks the circuit under its
   budget; the bench then times the two phases separately on the result
   and records the sampled/certified gap and the refinement count.
   Writes BENCH_maxerr.json.  Any closed certification with
   sampled > certified is a soundness bug and fails the bench; smoke mode
   additionally fails if a miter does not close. *)

type maxerr_row = {
  x_circuit : string;
  x_metric : string;
  x_threshold : float;
  x_ands_before : int;
  x_ands_after : int;
  x_applied : int;
  x_sampled : float;
  x_certified : float;
  x_refinements : int;
  x_sim_s : float;
  x_certify_s : float;
  x_closed : bool;
}

let maxerr_fixture (name, kind, threshold) =
  match Circuits.Suite.find name with
  | None -> failwith ("maxerr bench: unknown circuit " ^ name)
  | Some e ->
      let g = Graph.compact (e.Circuits.Suite.build ()) in
      let config =
        {
          (Core.Config.default ~metric:kind ~threshold) with
          Core.Config.seed = 1;
          eval_rounds = (if smoke_mode then 512 else 2048);
          max_iters = (if smoke_mode then 6 else 40);
        }
      in
      let approx, report = Core.Flow.run ~config g in
      let t0 = wall () in
      let sampled = Metrics.evaluate ~seed:7 ~sample:4096 kind ~original:g ~approx in
      let sim_s = wall () -. t0 in
      let t1 = wall () in
      let outcome = Errest.Maxerr.certify kind ~original:g ~approx in
      let certify_s = wall () -. t1 in
      let certified, refinements, closed =
        match outcome with
        | Errest.Maxerr.Exact { max; refinements; _ } -> (max, refinements, true)
        | Errest.Maxerr.Undecided _ -> (Float.nan, -1, false)
      in
      {
        x_circuit = name;
        x_metric = Metrics.kind_to_string kind;
        x_threshold = threshold;
        x_ands_before = Graph.num_ands g;
        x_ands_after = Graph.num_ands approx;
        x_applied = report.Core.Flow.applied;
        x_sampled = sampled;
        x_certified = certified;
        x_refinements = refinements;
        x_sim_s = sim_s;
        x_certify_s = certify_s;
        x_closed = closed;
      }

let maxerr_bench () =
  Printf.printf "\n== Max-error certification: sampled phase vs miter phase ==\n%!";
  let fixtures =
    if smoke_mode then [ ("ctrl", Metrics.Maxed, 3.0); ("cavlc", Metrics.Maxhd, 2.0) ]
    else
      [
        ("ctrl", Metrics.Maxed, 3.0);
        ("cavlc", Metrics.Maxed, 2.0);
        ("cavlc", Metrics.Maxhd, 2.0);
        ("int2float", Metrics.Maxed, 3.0);
        ("int2float", Metrics.Maxred, 0.25);
        ("rca32", Metrics.Maxed, 7.0);
      ]
  in
  let rows =
    List.map
      (fun fixture ->
        let r = maxerr_fixture fixture in
        Printf.printf
          "%-10s %-7s budget %-5g | ands %4d -> %4d (%2d LACs) | sampled %-8g \
           certified %-8g (%d refinements) | sim %6.3fs  certify %6.3fs%s\n\
           %!"
          r.x_circuit r.x_metric r.x_threshold r.x_ands_before r.x_ands_after
          r.x_applied r.x_sampled r.x_certified r.x_refinements r.x_sim_s
          r.x_certify_s
          (if r.x_closed then "" else "  UNDECIDED");
        r)
      fixtures
  in
  let row r =
    Printf.sprintf
      "  {\"circuit\": \"%s\", \"metric\": \"%s\", \"threshold\": %g, \
       \"ands_before\": %d, \"ands_after\": %d, \"applied\": %d, \"sampled\": \
       %g, \"certified\": %g, \"refinements\": %d, \"sim_s\": %.4f, \
       \"certify_s\": %.4f, \"closed\": %b}"
      r.x_circuit r.x_metric r.x_threshold r.x_ands_before r.x_ands_after
      r.x_applied r.x_sampled r.x_certified r.x_refinements r.x_sim_s
      r.x_certify_s r.x_closed
  in
  let out = open_out "BENCH_maxerr.json" in
  Printf.fprintf out "{\"mode\": \"%s\", \"rows\": [\n%s\n]}\n"
    (if smoke_mode then "smoke" else "full")
    (String.concat ",\n" (List.map row rows));
  close_out out;
  Printf.printf "wrote BENCH_maxerr.json\n%!";
  let unsound =
    List.exists (fun r -> r.x_closed && r.x_sampled > r.x_certified +. 1e-9) rows
  in
  if unsound then begin
    Printf.eprintf "maxerr bench: a sampled max exceeds its certified bound — UNSOUND\n";
    exit 1
  end;
  if smoke_mode && List.exists (fun r -> not r.x_closed) rows then begin
    Printf.eprintf "maxerr bench: a smoke-size miter failed to close\n";
    exit 1
  end

(* ---------- Core benchmark (DESIGN.md section 14) ----------

   The struct-of-arrays AIG core's hot paths on each circuit's recorded
   operation stream, timed through [ns_per_run]: construction (the whole
   PI/AND/PO stream into a fresh graph, strash misses throughout), strash
   hits (every AND re-issued), an arena rebuild + recycle, cold views
   (forced stale by a same-literal PO rewire) and warm views, and clone.
   test_aig ("graph", "soa-core") pins what these paths return and what
   they allocate.

   Writes BENCH_core.json: ns per operation.  Smoke mode
   (ALSRAC_BENCH_SMOKE=1) times c880 only.  Exits non-zero if a row has no
   positive estimate. *)

(* A graph as a replayable operation stream.  The stream is already
   strashed and normalized, so a replay assigns every node its id again. *)
type trace_op = T_pi | T_and of int * int | T_po of int

let trace_of g =
  let ops = ref [] in
  for id = 1 to Graph.num_nodes g - 1 do
    if Graph.is_pi g id then ops := T_pi :: !ops
    else ops := T_and (Graph.fanin0 g id, Graph.fanin1 g id) :: !ops
  done;
  Graph.iter_pos g (fun _ l -> ops := T_po l :: !ops);
  Array.of_list (List.rev !ops)

let replay ops =
  let g = Graph.create () in
  Array.iter
    (function
      | T_pi -> ignore (Graph.add_pi g)
      | T_and (a, b) -> ignore (Graph.and_ g a b)
      | T_po l -> ignore (Graph.add_po g l))
    ops;
  g

let core_workloads src =
  let ops = trace_of src in
  let g = replay ops in
  let rb = Graph.rebuilder () in
  [
    ("construction", fun () -> ignore (replay ops));
    ( "strash-hit",
      fun () ->
        Array.iter (function T_and (a, b) -> ignore (Graph.and_ g a b) | _ -> ()) ops );
    ("rebuild", fun () -> Graph.recycle rb (Graph.rebuild_with rb src));
    ( "views-cold",
      fun () ->
        Graph.set_po src 0 (Graph.po_lit src 0);
        ignore (Graph.views src) );
    ("views-warm", fun () -> ignore (Graph.views src));
    ("clone", fun () -> ignore (Graph.clone src));
  ]

let core_bench () =
  Printf.printf "\n== AIG-core microbenchmark: Aig.Graph hot paths (bechamel) ==\n%!";
  let circuits = if smoke_mode then [ "c880" ] else [ "c880"; "c1908"; "c7552"; "mtp8" ] in
  let rows =
    List.concat_map
      (fun name ->
        match Circuits.Suite.find name with
        | None -> failwith ("core bench: unknown circuit " ^ name)
        | Some e ->
            let src = Graph.compact (e.Circuits.Suite.build ()) in
            List.map
              (fun (workload, f) ->
                let est = ns_per_run f in
                (match est with
                | Some ns -> Printf.printf "%-8s %-14s %14.1f ns/op\n%!" name workload ns
                | None -> Printf.printf "%-8s %-14s (no estimate)\n%!" name workload);
                (name, workload, est))
              (core_workloads src))
      circuits
  in
  let row (name, workload, est) =
    Printf.sprintf "  {\"circuit\": \"%s\", \"workload\": \"%s\", \"ns_per_op\": %.1f}"
      name workload (Option.value est ~default:Float.nan)
  in
  let out = open_out "BENCH_core.json" in
  Printf.fprintf out "{\"mode\": \"%s\", \"rows\": [\n%s\n]}\n"
    (if smoke_mode then "smoke" else "full")
    (String.concat ",\n" (List.map row rows));
  close_out out;
  Printf.printf "wrote BENCH_core.json\n%!";
  if List.exists (fun (_, _, est) -> not (Option.value est ~default:0.0 > 0.0)) rows
  then begin
    Printf.eprintf "core bench: a row has no positive estimate\n";
    exit 1
  end

(* ---------- Exact-resubstitution benchmark (DESIGN.md section 15) ----------

   resyn2-with-resub against the plain three-pass pipeline over the
   benchmark suite: node/level reduction and wall-clock of compress2 with
   and without the fourth (exact-resubstitution) pass.  Each run's final
   graph is independently re-proven equivalent to the original with the CEC
   portfolio — a bench row is only "proven" if the end-to-end result
   certifies, on top of the per-commit proofs inside the engine.

   Writes BENCH_resub.json.  Gates: a refuted end-to-end proof is fatal
   in every mode; an Undecided one is fatal only in smoke mode, where
   the fixtures are small enough that the portfolio always closes (on
   the full corpus the largest miters can exhaust the bounded portfolio
   without implying anything is wrong — every commit inside the engine
   was individually certified).  In both modes resub must never end
   larger than plain compress2, and the fourth pass must yield a strict
   AND-count win on at least half the corpus — the headline claim of
   the pass. *)

type resub_row = {
  b_circuit : string;
  b_ands : int;  (** input (compacted) AND count *)
  b_plain_ands : int;
  b_resub_ands : int;
  b_plain_depth : int;
  b_resub_depth : int;
  b_plain_s : float;
  b_resub_s : float;
  b_accepted : int;
  b_proven : bool;  (** final graph CEC-proven equivalent to the input *)
  b_refuted : bool;  (** the CEC portfolio found a counterexample *)
}

let resub_fixture (e : Circuits.Suite.entry) =
  let g = Graph.compact (e.Circuits.Suite.build ()) in
  let t0 = wall () in
  let plain = Aig.Resyn.compress2 g in
  let plain_s = wall () -. t0 in
  let stats = ref Core.Resub_exact.zero_stats in
  let resub h =
    let h', st = Core.Resub_exact.run h in
    stats := Core.Resub_exact.add_stats !stats st;
    h'
  in
  let t1 = wall () in
  let withr = Aig.Resyn.compress2 ~resub g in
  let resub_s = wall () -. t1 in
  let proven, refuted =
    match Verify.Cec.run ~seed:11 ~effort:Verify.Cec.Thorough g withr with
    | Verify.Cec.Equivalent -> (true, false)
    | Verify.Cec.Undecided _ -> (false, false)
    | Verify.Cec.Inequivalent _ -> (false, true)
  in
  {
    b_circuit = e.Circuits.Suite.name;
    b_ands = Graph.num_ands g;
    b_plain_ands = Graph.num_ands plain;
    b_resub_ands = Graph.num_ands withr;
    b_plain_depth = Aig.Topo.depth plain;
    b_resub_depth = Aig.Topo.depth withr;
    b_plain_s = plain_s;
    b_resub_s = resub_s;
    b_accepted = !stats.Core.Resub_exact.accepted;
    b_proven = proven;
    b_refuted = refuted;
  }

let resub_bench () =
  Printf.printf
    "\n== Exact resubstitution: compress2 vs compress2+resub ==\n%!";
  let entries =
    if smoke_mode then
      List.filter_map Circuits.Suite.find [ "c880"; "c1908"; "ctrl"; "int2float" ]
    else Circuits.Suite.all
  in
  let rows =
    List.map
      (fun e ->
        let r = resub_fixture e in
        Printf.printf
          "%-10s %5d ands | plain %5d (d%3d) %6.2fs | +resub %5d (d%3d) %6.2fs \
           | %3d resubs%s%s\n\
           %!"
          r.b_circuit r.b_ands r.b_plain_ands r.b_plain_depth r.b_plain_s
          r.b_resub_ands r.b_resub_depth r.b_resub_s r.b_accepted
          (if r.b_resub_ands < r.b_plain_ands then "  WIN" else "")
          (if r.b_proven then ""
           else if r.b_refuted then "  REFUTED"
           else "  UNDECIDED");
        r)
      entries
  in
  let row r =
    Printf.sprintf
      "  {\"circuit\": \"%s\", \"ands\": %d, \"plain_ands\": %d, \
       \"resub_ands\": %d, \"plain_depth\": %d, \"resub_depth\": %d, \
       \"plain_s\": %.4f, \"resub_s\": %.4f, \"accepted\": %d, \
       \"proven\": %b, \"refuted\": %b}"
      r.b_circuit r.b_ands r.b_plain_ands r.b_resub_ands r.b_plain_depth
      r.b_resub_depth r.b_plain_s r.b_resub_s r.b_accepted r.b_proven
      r.b_refuted
  in
  let wins = List.length (List.filter (fun r -> r.b_resub_ands < r.b_plain_ands) rows) in
  let out = open_out "BENCH_resub.json" in
  Printf.fprintf out "{\"mode\": \"%s\", \"wins\": %d, \"rows\": [\n%s\n]}\n"
    (if smoke_mode then "smoke" else "full")
    wins
    (String.concat ",\n" (List.map row rows));
  close_out out;
  Printf.printf "wrote BENCH_resub.json (%d/%d strict AND wins)\n%!" wins
    (List.length rows);
  if List.exists (fun r -> r.b_refuted) rows then begin
    Printf.eprintf "resub bench: end-to-end CEC REFUTED a result — UNSOUND\n";
    exit 1
  end;
  let undecided = List.filter (fun r -> not r.b_proven) rows in
  if undecided <> [] then begin
    if smoke_mode then begin
      Printf.eprintf
        "resub bench: smoke fixture left Undecided by end-to-end CEC\n";
      exit 1
    end;
    List.iter
      (fun r ->
        Printf.printf
          "note: %s end-to-end proof Undecided (portfolio budget; every \
           commit was certified individually)\n"
          r.b_circuit)
      undecided
  end;
  if List.exists (fun r -> r.b_resub_ands > r.b_plain_ands) rows then begin
    Printf.eprintf "resub bench: resub ended LARGER than plain compress2\n";
    exit 1
  end;
  if 2 * wins < List.length rows then begin
    Printf.eprintf
      "resub bench: strict AND wins on only %d/%d circuits (need >= half)\n" wins
      (List.length rows);
    exit 1
  end

(* ---------- Driver ---------- *)

(* Every mode, in the order [all] runs them. *)
let modes =
  [
    ("table3", table3);
    ("table4", table4);
    ("table5", table5);
    ("table6", table6);
    ("table7", table7);
    ("ablations", ablations);
    ("micro", micro);
    ("pool", pool_bench);
    ("scoring", scoring);
    ("core", core_bench);
    ("serve", serve_bench);
    ("explore", explore_bench);
    ("maxerr", maxerr_bench);
    ("resub", resub_bench);
  ]

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let t0 = Sys.time () in
  let w0 = wall () in
  (match (mode, List.assoc_opt mode modes) with
  | "all", _ -> List.iter (fun (_, run) -> run ()) modes
  | _, Some run -> run ()
  | _, None ->
      Printf.eprintf "unknown mode %s (%s|all)\n" mode
        (String.concat "|" (List.map fst modes));
      exit 1);
  Printf.printf "\ntotal bench time: %.1fs cpu, %.1fs wall%s\n" (Sys.time () -. t0)
    (wall () -. w0)
    (if full_mode then " (full mode)"
     else " (scaled mode; ALSRAC_BENCH_FULL=1 for full sweeps)")
