(* End-to-end synthesis benchmark.

   Usage: main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]

   A workload is a closed batch of whole synthesis calls, one circuit at a
   time, in one process, at [jobs = 1]: [Core.Flow.run] the way
   [alsrac approx] drives it, or [Aig.Resyn.compress2] with
   [Core.Resub_exact.run] as its resub pass, the way
   [alsrac opt --exact-resub] does.  The seed feeds [Config.seed] and
   [Resub_exact.config.seed].  The circuits are synthesized in turn, round
   after round, as long as the next call is expected to end within [S]
   seconds (every circuit runs at least once); a timing is the sum over
   circuits of each circuit's mean over its calls.  Every output is then
   checked outside the timed region (interface, structure, AIGER round trip,
   identity across repetitions, CEC for exact synthesis) and its error
   re-measured independently.

   With [--trace 0] the last stdout line is a JSON object holding the
   end-to-end metrics.  With [--trace 1] it holds per-layer metrics: the
   batch is replayed once more through [Replay], with a span around every
   layer call, and once at [jobs = 2] to check that the pool leaves every
   output byte-identical. *)

module Graph = Aig.Graph
module Flow = Core.Flow
module Metrics = Errest.Metrics

type task =
  | Approx of { metric : Metrics.kind; threshold : float; journal : bool }
  | Opt_resub

type workload = { name : string; circuits : (string * task) list }

let er = Approx { metric = Metrics.Er; threshold = 0.01; journal = false }
let mred = Approx { metric = Metrics.Mred; threshold = 0.0019531; journal = true }

(* approx runs the flow under two constraints.  Under ER <= 1% it spends
   most of its time generating LACs; rca32 accepts nothing and stalls,
   cavlc is evaluated exhaustively.  Under MRED <= 0.19531%, journaled, it
   accepts 70-170 LACs on adder and log2, so scoring, per-accept resyn and
   journaling weigh more; int2float is evaluated exhaustively, so its error
   is exact.  The two constraints share one workload: on a shared 2-vCPU VM
   the speed of identical work drifts by up to 70% over minutes, so a run
   must last close to a minute for its timings to repeat, and the time limit
   for all runs of the benchmark fits two workloads of that length.  opt_resub
   runs no LAC generation or scoring; on log2 most resub commits are refuted
   by CEC and rolled back, on c7552 and c5315 most are accepted.  priority
   and max are left out: under ER and MRED their accept counts, and with
   them their run times, vary too much from seed to seed, and priority's
   exact resub alone takes 22-52 s.  sine is left out too: its exact resub
   makes a third pass under about one seed in four, which takes it from
   2.0 to 3.5 s. *)
let workloads =
  [
    {
      name = "approx";
      circuits =
        [
          ("c880", er); ("router", er); ("rca32", er); ("cavlc", er);
          ("adder", mred); ("log2", mred); ("int2float", mred);
        ];
    };
    {
      name = "opt_resub";
      circuits = [ ("c7552", Opt_resub); ("c5315", Opt_resub); ("log2", Opt_resub) ];
    };
  ]

(* ---------- measurement helpers ---------- *)

let now = Parallel.Clock.now_s

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean xs = exp (mean (List.map log xs))

let share a b = if b = 0.0 then 0.0 else a /. b

(* Peak resident set size of this process so far, in MiB (Linux). *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         if String.starts_with ~prefix:"VmHWM:" line then
           Scanf.sscanf line "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.0))
         else None)
  |> Option.value ~default:nan

let md5 g = Digest.to_hex (Digest.string (Circuit_io.Aiger.graph_to_string g))

(* Journals and other scratch files live here, inside the working
   directory, and are removed when the run ends. *)
let scratch_dir = "_e2ebench"

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* ---------- set-up ---------- *)

type circuit = { cname : string; task : task; input : Graph.t; reference : Graph.t }

let build_circuits w =
  List.map
    (fun (cname, task) ->
      match Circuits.Suite.find cname with
      | None -> failwith ("unknown circuit " ^ cname)
      | Some e ->
          let input = Graph.compact (e.Circuits.Suite.build ()) in
          { cname; task; input; reference = Aig.Resyn.compress2 input })
    w.circuits

(* ---------- the synthesis calls ---------- *)

type outcome = {
  graph : Graph.t;
  accepts : int;
  stop : Flow.stop_reason option;  (** [None] for opt_resub *)
  wall : float;
  cpu : float;
  pool : Parallel.Pool.stat array;
}

let approx_config ~metric ~threshold ~seed ~jobs =
  { (Core.Config.default ~metric ~threshold) with Core.Config.seed; jobs }

let resub_config seed = { Core.Resub_exact.default with Core.Resub_exact.seed }

let journal_dir c = Filename.concat scratch_dir ("journal-" ^ c.cname)

let synth ~seed ~jobs c =
  let w0 = now () and c0 = Sys.time () in
  let graph, accepts, stop, pool =
    match c.task with
    | Approx { metric; threshold; journal } ->
        let config = approx_config ~metric ~threshold ~seed ~jobs in
        let journal = if journal then Some (journal_dir c) else None in
        let g, r = Flow.run ?journal ~config c.input in
        (g, r.Flow.applied, Some r.Flow.stop_reason, r.Flow.pool)
    | Opt_resub ->
        Parallel.Pool.with_pool ~jobs @@ fun pool ->
        let accepted = ref 0 in
        let resub g =
          let g', st = Core.Resub_exact.run ~pool ~config:(resub_config seed) g in
          accepted := !accepted + st.Core.Resub_exact.accepted;
          g'
        in
        let g = Aig.Resyn.compress2 ~resub c.input in
        (g, !accepted, None, Parallel.Pool.stats pool)
  in
  { graph; accepts; stop; wall = now () -. w0; cpu = Sys.time () -. c0; pool }

(* A raised exception fails the circuit. *)
let try_synth ~seed ~jobs c = try Ok (synth ~seed ~jobs c) with e -> Error (Printexc.to_string e)

let stop_to_string = function
  | None -> "-"
  | Some Flow.Budget_exhausted -> "budget"
  | Some Flow.Stalled -> "stalled"
  | Some Flow.Max_iters -> "max-iters"
  | Some Flow.Emptied -> "emptied"
  | Some Flow.Timed_out -> "timed-out"

(* ---------- checks outside the timed region ---------- *)

(* Independent error recheck: exhaustive when the PI count allows, with
   margin 0; otherwise 16 batches of 2^13 rounds from streams the flow never
   draws from, with a margin of three standard errors of the batch means. *)
let recheck kind ~seed ~original ~approx =
  let npis = Graph.num_pis original in
  if npis <= 22 then (Metrics.evaluate ~sample:(1 lsl npis) kind ~original ~approx, 0.0)
  else
    let batches = 16 in
    let xs =
      List.init batches (fun b ->
          let rng = Logic.Rng.create ((seed * 1_000_033) + 0x7EC4EC + b) in
          Metrics.compare_graphs kind ~original ~approx
            (Sim.Patterns.random rng ~npis ~len:(1 lsl 13)))
    in
    let n = float_of_int batches in
    let mean = List.fold_left ( +. ) 0.0 xs /. n in
    let var = List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs /. (n -. 1.0) in
    (mean, 3.0 *. sqrt (var /. n))

type qor = { ands : int; luts : int; area : float; delay : float }

let qor tr g =
  let lut = Trace.span tr "techmap.lutmap" (fun () -> Techmap.Lutmap.run g) in
  let cell = Trace.span tr "techmap.cellmap" (fun () -> Techmap.Cellmap.run g) in
  {
    ands = Graph.num_ands g;
    luts = Techmap.Mapped.num_cells lut;
    area = Techmap.Mapped.area cell;
    delay = Techmap.Mapped.delay cell;
  }

(* The first output check that fails, if any. *)
let output_problem tr c (o : outcome) =
  let g = o.graph in
  if Graph.num_pis g <> Graph.num_pis c.input || Graph.num_pos g <> Graph.num_pos c.input then
    Some "PI/PO interface changed"
  else if o.stop = Some Flow.Timed_out then Some "timed out"
  else
    match Aig.Check.check g with
    | Error msg -> Some ("check: " ^ msg)
    | Ok () -> (
        let s = Circuit_io.Aiger.graph_to_string g in
        if Circuit_io.Aiger.graph_to_string (Circuit_io.Aiger.parse s) <> s then
          Some "AIGER round trip differs"
        else
          match c.task with
          | Approx _ -> None
          | Opt_resub -> (
              match
                Trace.span tr "verify.cec" (fun () ->
                    Verify.Cec.run ~effort:Verify.Cec.Thorough c.input g)
              with
              | Verify.Cec.Equivalent -> None
              | v -> Some ("CEC: " ^ Verify.Cec.verdict_to_string v)))

(* Output hashes recorded at the parent commit, as lines
   "workload seed circuit md5".  A differing hash means changed behaviour,
   which is reported but is not a failure. *)
let recorded_hashes ~workload ~seed =
  let path = Filename.concat "e2ebench" "hashes.txt" in
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | [ wl; s; c; h ] when wl = workload && int_of_string_opt s = Some seed -> Some (c, h)
           | _ -> None)

type row = {
  c : circuit;
  out : outcome option;
  problem : string option;  (** the first failed check *)
  violation : bool;  (** the recheck exceeds the threshold by more than its margin *)
  qor : (qor * qor) option;  (** reference, output *)
  replay_valid : bool;
  iters : string;  (** iterations (flow) or passes (resub) of the traced replay *)
  traced : string;  (** wall time of the traced replay *)
}

(* ---------- traced replay ---------- *)

type replayed = { rtrace : Trace.t; results : (string * (Replay.result, string) result) list }

let replay ~seed circuits =
  let tr = Trace.create () in
  let results =
    Trace.span tr "workload" @@ fun () ->
    List.map
      (fun c ->
        Trace.set_scope tr c.cname;
        let r =
          try
            Ok
              (Trace.span tr "circuit" @@ fun () ->
               match c.task with
               | Approx { metric; threshold; journal } ->
                   Replay.flow tr
                     ?journal:(if journal then Some (journal_dir c) else None)
                     ~config:(approx_config ~metric ~threshold ~seed ~jobs:1)
                     c.input
               | Opt_resub -> Replay.opt tr ~resub_config:(resub_config seed) c.input)
          with e -> Error (Printexc.to_string e)
        in
        Trace.set_scope tr "";
        (c.cname, r))
      circuits
  in
  { rtrace = tr; results }

(* Spans that structure the trace rather than time a layer call. *)
let structural = [ "workload"; "circuit"; "core.flow.iteration" ]

let per_layer ~valid ~untraced_wall ~checks ~pool rp =
  let tr = rp.rtrace in
  let keep sc = List.mem sc valid in
  let self = Trace.self_times ~keep tr in
  let self_checks = Trace.self_times checks in
  let s ?(t = self) name = Option.value (Hashtbl.find_opt t name) ~default:0.0 in
  let c name = float_of_int (Trace.counter ~keep tr name) in
  let traced_wall = Trace.total ~keep tr "circuit" in
  let layer_time =
    Hashtbl.fold (fun name v acc -> if List.mem name structural then acc else acc +. v) self 0.0
  in
  let tried =
    c "core.resub_exact.accepted" +. c "core.resub_exact.cec_refuted"
    +. c "core.resub_exact.cec_undecided"
  in
  let ns_to_s = Parallel.Clock.ns_to_s in
  let pool_sum f = List.fold_left (fun acc (st : Parallel.Pool.stat) -> acc +. f st) 0.0 pool in
  let shares =
    Hashtbl.fold (fun name v acc -> (name, v) :: acc) self []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  Printf.printf "per-layer self time (traced wall %.3f s, untraced %.3f s):\n" traced_wall
    untraced_wall;
  List.iter
    (fun (name, v) ->
      Printf.printf "  %-22s %9.3f s %6.2f%%\n" name v (100.0 *. share v traced_wall))
    shares;
  [
    ("core.flow.iterations", c "core.flow.iterations", "count");
    ("core.flow.accepts", c "core.flow.accepts", "count");
    ("core.flow.accept_share", share (c "core.flow.accepts") (c "core.flow.iterations"), "share");
    ("core.flow.guard_s", s "core.flow.guard", "s");
    ("sim.care_s", s "sim.care", "s");
    ("sim.eval_s", s "sim.eval", "s");
    ("core.lac.generate_s", s "core.lac.generate", "s");
    ("core.lac.candidates", c "core.lac.candidates", "count");
    ("core.lac.yield", share (c "core.flow.accepts") (c "core.lac.candidates"), "share");
    ("errest.batch.score_s", s "errest.batch", "s");
    ("errest.batch.scored", c "errest.batch.scored", "count");
    ( "errest.batch.trivial_share",
      share (c "errest.batch.trivial") (c "errest.batch.scored"),
      "share" );
    ("errest.batch.frontier_nodes", c "errest.batch.frontier_nodes", "count");
    ("errest.batch.changed_words", c "errest.batch.changed_words", "count");
    ("aig.graph.rebuild_s", s "aig.graph.rebuild", "s");
    ("aig.graph.rebuilds", c "aig.graph.rebuilds", "count");
    ("aig.graph.rebuild_yield", share (c "core.flow.accepts") (c "aig.graph.rebuilds"), "share");
    ("aig.graph.compact_s", s "aig.graph.compact", "s");
    ("aig.topo.depth_s", s "aig.topo.depth", "s");
    ("aig.resyn.light_s", s "aig.resyn.light", "s");
    ("aig.resyn.compress2_s", s "aig.resyn.compress2", "s");
    ("aig.resyn.balance_s", s "aig.resyn.balance", "s");
    ("aig.resyn.rewrite_s", s "aig.resyn.rewrite", "s");
    ("aig.resyn.refactor_s", s "aig.resyn.refactor", "s");
    ("core.journal.record_s", s "core.journal.record", "s");
    ("core.journal.records", c "core.journal.records", "count");
    ("errest.certify_s", s "errest.certify", "s");
    ("core.resub_exact.run_s", s "core.resub_exact", "s");
    ("core.resub_exact.derived", c "core.resub_exact.derived", "count");
    ("core.resub_exact.accepted", c "core.resub_exact.accepted", "count");
    ("core.resub_exact.sim_refuted", c "core.resub_exact.sim_refuted", "count");
    ("core.resub_exact.cec_refuted", c "core.resub_exact.cec_refuted", "count");
    ("core.resub_exact.cec_undecided", c "core.resub_exact.cec_undecided", "count");
    ("core.resub_exact.yield", share (c "core.resub_exact.accepted") tried, "share");
    ("verify.cec.check_s", s ~t:self_checks "verify.cec", "s");
    ("techmap.lutmap_s", s ~t:self_checks "techmap.lutmap", "s");
    ("techmap.cellmap_s", s ~t:self_checks "techmap.cellmap", "s");
    ("trace.overhead", share traced_wall untraced_wall -. 1.0, "share");
    ("trace.coverage", share layer_time traced_wall, "share");
    ("parallel.pool.tasks", pool_sum (fun st -> float_of_int st.Parallel.Pool.tasks), "count");
    ("parallel.pool.steals", pool_sum (fun st -> float_of_int st.Parallel.Pool.steals), "count");
    ("parallel.pool.busy_s", pool_sum (fun st -> ns_to_s st.Parallel.Pool.busy_ns), "s");
    ("parallel.pool.idle_s", pool_sum (fun st -> ns_to_s st.Parallel.Pool.idle_ns), "s");
  ]

(* ---------- output ---------- *)

let json_result ~correct ~attempted ~failed metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (num v) unit)
          metrics))

let usage () =
  prerr_endline
    "usage: main.exe --workload (approx|opt_resub) [--seed N] [--seconds S] [--trace 0|1]";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := List.find_opt (fun w -> w.name = v) workloads;
        if !workload = None then usage ();
        go rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with Some s -> seed := s | None -> usage ());
        go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with Some s when s > 0.0 -> seconds := s | _ -> usage ());
        go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := v = "1";
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match !workload with None -> usage () | Some w -> (w, !seed, !seconds, !trace)

let () =
  let w, seed, seconds, traced = parse_args () in
  remove_tree scratch_dir;
  Sys.mkdir scratch_dir 0o755;
  (* Set-up is repeated so that its median is steady; the circuits of the
     first repetition are used. *)
  let setups =
    List.init (if traced then 1 else 9) (fun _ ->
        let t0 = now () in
        let cs = build_circuits w in
        (cs, now () -. t0))
  in
  let circuits = fst (List.hd setups) in
  let setup_s = median (List.map snd setups) in
  (* Timed calls: the circuits in turn, round after round.  After the first
     round a call is made only if, at its circuit's median so far, it ends
     within [seconds]; a traced run makes one round, for [trace.overhead]. *)
  let cs = Array.of_list circuits in
  let n = Array.length cs in
  let calls = Array.make n [] and durations = Array.make n [] in
  let t0 = now () in
  let rec go i =
    let k = i mod n in
    if i < n || ((not traced) && now () -. t0 +. median durations.(k) <= seconds) then begin
      let c0 = now () in
      let r = try_synth ~seed ~jobs:1 cs.(k) in
      durations.(k) <- (now () -. c0) :: durations.(k);
      calls.(k) <- r :: calls.(k);
      (match r with
      | Ok o -> Printf.printf "call %-9s %8.3f s wall %8.3f s cpu\n%!" cs.(k).cname o.wall o.cpu
      | Error e -> Printf.printf "call %-9s raised %s\n%!" cs.(k).cname e);
      go (i + 1)
    end
  in
  go 0;
  let rss = peak_rss_mb () in
  (* The mean rather than the median: the noise on a shared VM is a drift
     of machine speed lasting minutes, not isolated slow calls, and over
     five ten-seed sets the sum of means spread less than the sum of
     medians in every set. *)
  let timing f =
    Array.fold_left
      (fun acc rs ->
        match List.filter_map (function Ok o -> Some (f o) | Error _ -> None) rs with
        | [] -> acc
        | xs -> acc +. mean xs)
      0.0 calls
  in
  let wall_s = timing (fun o -> o.wall) and cpu_s = timing (fun o -> o.cpu) in
  (* Traced replay and jobs = 2 round, both outside the timed calls. *)
  let replayed, jobs2 =
    if traced then
      (Some (replay ~seed circuits), Some (List.map (try_synth ~seed ~jobs:2) circuits))
    else (None, None)
  in
  let checks = Trace.create () in
  let rows =
    List.mapi
      (fun i c ->
        let replay_result =
          Option.map (fun rp -> List.assoc c.cname rp.results) replayed
        in
        let iters =
          match replay_result with
          | Some (Ok r) -> string_of_int r.Replay.iterations
          | Some (Error _) -> "?"
          | None -> "-"
        in
        let traced =
          Option.fold ~none:"-"
            ~some:(fun rp ->
              Printf.sprintf "%.3f" (Trace.total ~keep:(( = ) c.cname) rp.rtrace "circuit"))
            replayed
        in
        match List.find_map (function Error e -> Some e | Ok _ -> None) calls.(i) with
        | Some e ->
            { c; out = None; problem = Some ("raised " ^ e); violation = false; qor = None;
              replay_valid = false; iters; traced }
        | None ->
            let o = Result.get_ok (List.hd calls.(i)) in
            let h = md5 o.graph in
            let same = function Ok (o' : outcome) -> md5 o'.graph = h | Error _ -> false in
            let replay_valid =
              match replay_result with
              | Some (Ok r) ->
                  md5 r.Replay.graph = h && r.Replay.accepts = o.accepts && r.Replay.stop = o.stop
              | Some (Error _) | None -> false
            in
            let problem =
              if not (List.for_all same calls.(i)) then Some "output differs between repetitions"
              else if Option.fold ~none:false ~some:(fun p -> not (same (List.nth p i))) jobs2 then
                Some "output differs at jobs = 2"
              else if replayed <> None && not replay_valid then Some "traced replay diverged"
              else output_problem checks c o
            in
            let metric, threshold =
              match c.task with
              | Approx { metric; threshold; _ } -> (metric, threshold)
              | Opt_resub -> (Metrics.Er, 0.0)
            in
            let err, margin = recheck metric ~seed ~original:c.input ~approx:o.graph in
            let violation = err > threshold +. margin in
            Printf.printf "%-9s recheck %s = %.6f%% (margin %.6f%%, threshold %.6f%%)%s\n" c.cname
              (Metrics.kind_to_string metric) (100.0 *. err) (100.0 *. margin) (100.0 *. threshold)
              (if violation then "  VIOLATION" else "");
            { c; out = Some o; problem; violation;
              qor = Some (qor checks c.reference, qor checks o.graph);
              replay_valid; iters; traced })
      circuits
  in
  let recorded = recorded_hashes ~workload:w.name ~seed in
  Printf.printf "%-9s %7s %8s %8s %6s %9s %7s %7s %5s %8s %8s  %s\n" "circuit" "in_ands"
    "ref_ands" "out_ands" "luts" "stop" "iters" "accepts" "calls" "wall_s" "traced_s" "md5";
  List.iteri
    (fun i r ->
      (match (r.out, r.qor) with
      | Some o, Some (_, q) ->
          let h = md5 o.graph in
          let walls = List.map (fun r -> (Result.get_ok r).wall) calls.(i) in
          Printf.printf "%-9s %7d %8d %8d %6d %9s %7s %7d %5d %8.3f %8s  %s\n" r.c.cname
            (Graph.num_ands r.c.input) (Graph.num_ands r.c.reference) q.ands q.luts
            (stop_to_string o.stop) r.iters o.accepts (List.length walls) (mean walls) r.traced
            h;
          (match List.assoc_opt r.c.cname recorded with
          | Some h' when h' <> h -> Printf.printf "  behaviour changed (recorded %s)\n" h'
          | _ -> ())
      | _ -> Printf.printf "%-9s (no output)\n" r.c.cname);
      Option.iter (fun p -> Printf.printf "  FAILED: %s\n" p) r.problem)
    rows;
  let attempted = List.length rows in
  let failed = List.length (List.filter (fun r -> r.problem <> None) rows) in
  let violations = List.length (List.filter (fun r -> r.violation) rows) in
  Printf.printf "fail_rate %d/%d, violation_rate %d/%d\n" failed attempted violations attempted;
  remove_tree scratch_dir;
  match replayed with
  | None ->
      let ratio f =
        geomean (List.filter_map (fun r -> Option.map (fun (r, o) -> f o /. f r) r.qor) rows)
      in
      json_result ~correct:(failed = 0) ~attempted ~failed
        [
          ("setup_s", setup_s, "s");
          ("wall_s", wall_s, "s");
          ("cpu_s", cpu_s, "s");
          ("peak_rss_mb", rss, "MiB");
          ("and_ratio", ratio (fun q -> float_of_int q.ands), "ratio");
          ("lut6_ratio", ratio (fun q -> float_of_int q.luts), "ratio");
          ("area_ratio", ratio (fun q -> q.area), "ratio");
          ("delay_ratio", ratio (fun q -> q.delay), "ratio");
          ("pass_rate", float_of_int (attempted - failed) /. float_of_int attempted, "share");
        ]
  | Some rp ->
      (* A circuit whose replay diverged contributes no per-layer numbers. *)
      let valid = List.filter (fun r -> r.replay_valid) rows in
      List.iter
        (fun r ->
          if not r.replay_valid then
            Printf.printf "%s: per-layer numbers invalid (replay diverged)\n" r.c.cname)
        rows;
      let untraced_wall =
        List.fold_left
          (fun acc r -> acc +. Option.fold ~none:0.0 ~some:(fun o -> o.wall) r.out)
          0.0 valid
      in
      let pool =
        List.concat_map (function Ok o -> Array.to_list o.pool | Error _ -> []) (Option.get jobs2)
      in
      json_result ~correct:(failed = 0) ~attempted ~failed
        (( "errest.recheck.violation_rate",
           float_of_int violations /. float_of_int attempted,
           "share" )
        :: per_layer ~valid:(List.map (fun r -> r.c.cname) valid) ~untraced_wall ~checks ~pool rp)
