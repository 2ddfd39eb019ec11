module Bitvec = Logic.Bitvec
module Graph = Aig.Graph
module Metrics = Errest.Metrics
module Distr = Errest.Distr
module Maxerr = Errest.Maxerr

let check = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let vec s = Bitvec.of_string s

(* ---------- Metrics on hand-built signatures ---------- *)

let test_er_basic () =
  (* 8 rounds, 2 POs; rounds 1 and 5 differ. *)
  let golden = [| vec "01010101"; vec "00110011" |] in
  let approx = [| vec "00010001"; vec "00110011" |] in
  check_float "er" 0.25 (Metrics.er ~golden ~approx)

let test_er_zero_on_equal () =
  let golden = [| vec "0110"; vec "1010" |] in
  check_float "zero" 0.0 (Metrics.er ~golden ~approx:golden)

let test_output_values () =
  (* PO 0 = LSB.  Round 0: 1,0 -> 1.  Round 1: 0,1 -> 2.  Round 2: 1,1 -> 3. *)
  let pos = [| vec "101"; vec "011" |] in
  Alcotest.(check (array int)) "decode" [| 1; 2; 3 |] (Metrics.output_values pos)

let test_mean_ed () =
  let golden = [| vec "10"; vec "01" |] in
  (* values 1, 2 *)
  let approx = [| vec "01"; vec "01" |] in
  (* values 0, 3 *)
  check_float "mean |d|" 1.0 (Metrics.mean_ed ~golden ~approx)

let test_nmed () =
  let golden = [| vec "10"; vec "01" |] in
  let approx = [| vec "01"; vec "01" |] in
  (* mean ED 1.0 over maxval 3. *)
  check_float "nmed" (1.0 /. 3.0) (Metrics.nmed ~golden ~approx)

let test_mred () =
  let golden = [| vec "10"; vec "01" |] in
  (* 1, 2 *)
  let approx = [| vec "00"; vec "01" |] in
  (* 0, 2 *)
  (* |1-0|/1 = 1; |2-2|/2 = 0 -> mean 0.5 *)
  check_float "mred" 0.5 (Metrics.mred ~golden ~approx)

let test_mred_zero_guard () =
  let golden = [| vec "0" |] in
  (* correct value 0: denominator max(0,1)=1. *)
  let approx = [| vec "1" |] in
  check_float "division guard" 1.0 (Metrics.mred ~golden ~approx)

let test_shape_mismatch () =
  Alcotest.check_raises "po count" (Invalid_argument "Metrics: PO count mismatch")
    (fun () -> ignore (Metrics.er ~golden:[| vec "0" |] ~approx:[||]))

(* ---------- compare_graphs / evaluate ---------- *)

let test_compare_graphs_exact () =
  (* approx = original with one PO inverted: er = 1. *)
  let g = Graph.create () in
  let a = Graph.add_pi g and b = Graph.add_pi g in
  ignore (Graph.add_po g (Graph.and_ g a b));
  let h = Graph.create () in
  let a' = Graph.add_pi h and b' = Graph.add_pi h in
  ignore (Graph.add_po h (Graph.lit_not (Graph.and_ h a' b')));
  let pats = Sim.Patterns.exhaustive ~npis:2 in
  check_float "always wrong" 1.0 (Metrics.compare_graphs Metrics.Er ~original:g ~approx:h pats)

let test_evaluate_known_er () =
  (* approx of AND2 by constant 0: wrong only on input 11 -> ER 0.25. *)
  let g = Graph.create () in
  let a = Graph.add_pi g and b = Graph.add_pi g in
  ignore (Graph.add_po g (Graph.and_ g a b));
  let h = Graph.create () in
  ignore (Graph.add_pi h);
  ignore (Graph.add_pi h);
  ignore (Graph.add_po h Graph.const0);
  check_float "er 1/4" 0.25 (Metrics.evaluate Metrics.Er ~original:g ~approx:h)

(* ---------- Observability ---------- *)

let test_observability_tree_exact () =
  (* On a fanout-free tree the backward masks are exact: compare against
     flip-and-resimulate. *)
  let rng = Logic.Rng.create 17 in
  for _ = 1 to 10 do
    (* Build a random tree: every node used exactly once. *)
    let g = Graph.create () in
    let pool = ref (List.init 8 (fun _ -> Graph.add_pi g)) in
    while List.length !pool > 1 do
      match !pool with
      | a :: b :: rest ->
          let a = if Logic.Rng.bool rng then Graph.lit_not a else a in
          let b = if Logic.Rng.bool rng then Graph.lit_not b else b in
          pool := rest @ [ Graph.and_ g a b ]
      | _ -> assert false
    done;
    ignore (Graph.add_po g (List.hd !pool));
    let pats = Sim.Patterns.exhaustive ~npis:8 in
    let sigs = Sim.Engine.simulate g pats in
    let obs = Errest.Observability.masks g ~sigs in
    Graph.iter_ands g (fun id ->
        let tfo = Aig.Cone.tfo_mask g id in
        let flipped = Bitvec.lognot sigs.(id) in
        let pos = Sim.Engine.resimulate_tfo g ~base:sigs ~tfo ~node:id ~value:flipped in
        let golden = Sim.Engine.po_values g sigs in
        let diff = Bitvec.create (Bitvec.length flipped) in
        Array.iteri
          (fun i p -> Bitvec.logor_inplace diff (Bitvec.logxor p golden.(i)))
          pos;
        check "tree observability exact" true (Bitvec.equal diff obs.(id)))
  done

let test_observability_po_drivers_full () =
  (* A PO driver is always fully observable, and the heuristic should agree
     with exact propagation on a clear majority of (node, round) pairs even
     under reconvergence. *)
  let rng = Logic.Rng.create 23 in
  for _ = 1 to 10 do
    let g = Util.random_graph rng ~npis:6 ~nands:30 in
    let pats = Sim.Patterns.exhaustive ~npis:6 in
    let sigs = Sim.Engine.simulate g pats in
    let obs = Errest.Observability.masks g ~sigs in
    Graph.iter_pos g (fun _ l ->
        let id = Graph.node_of l in
        if not (Graph.is_const id) then
          check "po driver fully observable" true (Bitvec.is_ones obs.(id)));
    let golden = Sim.Engine.po_values g sigs in
    let agree = ref 0 and total = ref 0 in
    Graph.iter_ands g (fun id ->
        let tfo = Aig.Cone.tfo_mask g id in
        let flipped = Bitvec.lognot sigs.(id) in
        let pos = Sim.Engine.resimulate_tfo g ~base:sigs ~tfo ~node:id ~value:flipped in
        let diff = Bitvec.create (Bitvec.length flipped) in
        Array.iteri (fun i p -> Bitvec.logor_inplace diff (Bitvec.logxor p golden.(i))) pos;
        total := !total + Bitvec.length diff;
        agree := !agree + (Bitvec.length diff - Bitvec.hamming diff obs.(id)));
    if !total > 0 then
      check "heuristic mostly agrees with exact" true
        (float_of_int !agree /. float_of_int !total > 0.8)
  done

(* ---------- Batch ---------- *)

let prop_batch_equals_rebuild =
  QCheck.Test.make ~name:"batch candidate error equals rebuilt-circuit error"
    ~count:30
    QCheck.(make Gen.(int_range 0 100000))
    (fun seed ->
      let rng = Logic.Rng.create seed in
      let g = Util.random_graph rng ~npis:5 ~nands:40 in
      if Graph.num_ands g = 0 then true
      else begin
        let pats = Sim.Patterns.exhaustive ~npis:5 in
        let golden = Sim.Engine.simulate_pos g pats in
        let base = Sim.Engine.simulate g pats in
        let batch = Errest.Batch.create g ~metric:Metrics.Er ~golden ~base in
        (* Candidate: substitute a random AND node by an earlier literal. *)
        let ands = ref [] in
        Graph.iter_ands g (fun id -> ands := id :: !ands);
        let arr = Array.of_list !ands in
        let v = arr.(Logic.Rng.int rng (Array.length arr)) in
        let s = 1 + Logic.Rng.int rng (max 1 (v - 1)) in
        let compl = Logic.Rng.bool rng in
        let new_sig = if compl then Bitvec.lognot base.(s) else Bitvec.copy base.(s) in
        let fast = Errest.Batch.candidate_error batch ~node:v ~new_sig in
        let rebuilt =
          Graph.rebuild
            ~replace:(fun id ->
              if id = v then Some (Graph.Replace_lit (Graph.make_lit s compl)) else None)
            g
        in
        let slow = Metrics.compare_graphs Metrics.Er ~original:g ~approx:rebuilt pats in
        (* The rebuilt comparison is against g itself (golden = g's outputs). *)
        Float.abs (fast -. slow) < 1e-9
      end)

let test_batch_base_error_zero () =
  let g = Graph.create () in
  let a = Graph.add_pi g and b = Graph.add_pi g in
  ignore (Graph.add_po g (Graph.and_ g a b));
  let pats = Sim.Patterns.exhaustive ~npis:2 in
  let golden = Sim.Engine.simulate_pos g pats in
  let base = Sim.Engine.simulate g pats in
  let batch = Errest.Batch.create g ~metric:Metrics.Er ~golden ~base in
  check_float "no change, no error" 0.0 (Errest.Batch.base_error batch)

(* ---------- Differential oracle: event-driven kernel vs full resim ----------

   The event-driven kernel (sparse frontier + difference-mask early exit +
   incremental metric deltas) must return EXACTLY — [Float.equal], not
   within a tolerance — the error a naive full TFO re-simulation and full
   prepared measurement returns, for every metric and candidate shape. *)

let oracle_error g ~prep ~base ~node ~new_sig =
  let tfo = Aig.Cone.tfo_mask g node in
  let pos = Sim.Engine.resimulate_tfo g ~base ~tfo ~node ~value:new_sig in
  Metrics.measure_prepared prep ~approx:pos

let all_metrics = Metrics.all_kinds
let nmetrics = List.length all_metrics

(* The four distribution shapes of a matrix row: uniform (no weights),
   enumerated-uniform, enumerated-weighted, and a sparse support with
   excluded rounds. *)
let matrix_weight_cells rng len =
  [
    ("unif", None);
    ("enum-uniform", Some (Array.make len 1.0));
    ("enum-weighted", Some (Array.init len (fun _ -> 0.0625 +. Logic.Rng.float rng)));
    ( "enum-sparse",
      Some
        (Array.init len (fun m ->
             if m land 3 = 0 then 0.5 +. Logic.Rng.float rng else 0.0)) );
  ]

(* Candidate signatures exercising every kernel path: divisor copy and
   complement (what the LAC flow produces), a fully random signature (dense
   diffs, many changed words), the target's full flip (every round of every
   word differs), and the base signature itself (trivial). *)
let candidate_specs rng ~base ~targets =
  let len = Bitvec.length base.(0) in
  List.concat_map
    (fun node ->
      let s = Logic.Rng.int rng (max 1 node) in
      [
        (node, Bitvec.copy base.(s));
        (node, Bitvec.lognot base.(s));
        (node, Bitvec.random rng len);
        (node, Bitvec.lognot base.(node));
        (node, Bitvec.copy base.(node));
      ])
    targets

let random_targets rng g ~count =
  let ands = ref [] in
  Graph.iter_ands g (fun id -> ands := id :: !ands);
  match Array.of_list !ands with
  | [||] -> []
  | arr -> List.init count (fun _ -> arr.(Logic.Rng.int rng (Array.length arr)))

(* Score [specs] with the kernel (optionally through a pool, optionally
   under per-round distribution [weights]) and demand bit-identity with the
   oracle on every candidate, plus on the base error itself.  [label] names
   the case in a failure. *)
let differential_check ?pool ?weights ?(label = "") g ~metric ~pats ~specs =
  let golden = Sim.Engine.simulate_pos g pats in
  let base = Sim.Engine.simulate g pats in
  let prep = Metrics.prepare ?weights metric ~golden in
  let batch = Errest.Batch.create ?weights g ~metric ~golden ~base in
  let base_oracle =
    Metrics.measure_prepared prep ~approx:(Sim.Engine.po_values g base)
  in
  if not (Float.equal (Errest.Batch.base_error batch) base_oracle) then
    Alcotest.failf "%s metric %s, base error: kernel %.17g <> oracle %.17g" label
      (Metrics.kind_to_string metric) (Errest.Batch.base_error batch) base_oracle;
  let specs = Array.of_list specs in
  let fast = Errest.Batch.candidate_errors ?pool batch specs in
  Array.iteri
    (fun i (node, new_sig) ->
      let slow = oracle_error g ~prep ~base ~node ~new_sig in
      if not (Float.equal fast.(i) slow) then
        Alcotest.failf
          "%s metric %s, node %d, candidate %d: kernel %.17g <> oracle %.17g"
          label (Metrics.kind_to_string metric) node i fast.(i) slow)
    specs;
  Errest.Batch.stats batch

(* Pattern lengths chosen to exercise full words, a partial tail word, and
   the single-word case. *)
let pattern_lens = [| 62; 50; 193; 248 |]

let gen_profile seed =
  {
    Verify.Gen.npis = 5 + (seed mod 4);
    npos = 2 + (seed mod 6);
    nands = 40 + (seed mod 60);
    reconv = 0.3 +. (0.1 *. float_of_int (seed mod 5));
    compl_p = 0.5;
  }

let test_differential_random_circuits () =
  for seed = 1 to 120 do
    let g = Verify.Gen.random ~profile:(gen_profile seed) seed in
    let rng = Logic.Rng.create (seed * 7919) in
    let len = pattern_lens.(seed mod Array.length pattern_lens) in
    let pats = Sim.Patterns.random rng ~npis:(Graph.num_pis g) ~len in
    let metric = List.nth all_metrics (seed mod nmetrics) in
    match random_targets rng g ~count:2 with
    | [] -> ()
    | targets ->
        let base = Sim.Engine.simulate g pats in
        let specs = candidate_specs rng ~base ~targets in
        List.iter
          (fun (cell, weights) ->
            let label = Printf.sprintf "seed %d cell %s:" seed cell in
            ignore
              (differential_check ?weights ~label g ~metric ~pats ~specs
                : Errest.Batch.stats))
          (matrix_weight_cells rng len)
  done

let test_differential_wide_pos () =
  (* The PO counts of adder and rca32 (33) and the decode limit (62), at
     pattern lengths ending in a partial tail word.  One target drives two
     extra POs, one of them complemented, so its full flip changes both in
     every round. *)
  List.iteri
    (fun k (npos, len) ->
      let seed = 500 + k in
      let profile =
        { Verify.Gen.npis = 7; npos = npos - 2; nands = 90; reconv = 0.4; compl_p = 0.5 }
      in
      let g = Verify.Gen.random ~profile seed in
      let rng = Logic.Rng.create (seed * 7919) in
      match random_targets rng g ~count:3 with
      | [] -> Alcotest.failf "seed %d: no AND gate to target" seed
      | shared :: _ as targets ->
          let l = Graph.make_lit shared false in
          ignore (Graph.add_po g l : int);
          ignore (Graph.add_po g (Graph.lit_not l) : int);
          Alcotest.(check int) "PO count" npos (Graph.num_pos g);
          let pats = Sim.Patterns.random rng ~npis:(Graph.num_pis g) ~len in
          let base = Sim.Engine.simulate g pats in
          let specs = candidate_specs rng ~base ~targets in
          List.iter
            (fun metric ->
              List.iter
                (fun (cell, weights) ->
                  let label =
                    Printf.sprintf "%d POs, %d rounds, cell %s:" npos len cell
                  in
                  ignore
                    (differential_check ?weights ~label g ~metric ~pats ~specs
                      : Errest.Batch.stats))
                (matrix_weight_cells rng len))
            all_metrics)
    [ (33, 50); (33, 193); (62, 50); (62, 193) ]

let test_differential_jobs_invariance () =
  (* The same circuits and candidates through a 4-lane pool: per-candidate
     errors AND the merged scoring counters must match the sequential run
     exactly. *)
  Parallel.Pool.with_pool ~jobs:4 (fun pool ->
      for seed = 1 to 40 do
        let g = Verify.Gen.random ~profile:(gen_profile seed) (seed + 1000) in
        let rng = Logic.Rng.create (seed * 104729) in
        let pats =
          Sim.Patterns.random rng ~npis:(Graph.num_pis g)
            ~len:pattern_lens.(seed mod Array.length pattern_lens)
        in
        let metric = List.nth all_metrics (seed mod nmetrics) in
        match random_targets rng g ~count:2 with
        | [] -> ()
        | targets ->
            let base = Sim.Engine.simulate g pats in
            let specs = candidate_specs rng ~base ~targets in
            let s1 = differential_check g ~metric ~pats ~specs in
            let s4 = differential_check ~pool g ~metric ~pats ~specs in
            check "stats identical at jobs=1 and jobs=4" true (s1 = s4)
      done)

(* The flow's own candidates: [Core.Lac.generate] on a fresh 32-round care
   set, each cover evaluated over the base signatures the way [Core.Flow]
   builds its scoring specs; the first 64.  They agree with their target on
   the care patterns, so their differences on [base] are sparse. *)
let lac_specs rng g ~base =
  let rounds = 32 in
  let care_pats = Sim.Patterns.random rng ~npis:(Graph.num_pis g) ~len:rounds in
  let care = Sim.Engine.simulate g care_pats in
  let config = Core.Config.default ~metric:Metrics.Er ~threshold:0.01 in
  Core.Lac.generate g ~config ~sigs:care ~rounds
  |> List.filteri (fun i _ -> i < 64)
  |> List.map (fun (lac : Core.Lac.t) ->
         let pos_sigs = Array.map (fun d -> base.(d)) lac.Core.Lac.divisors in
         (lac.Core.Lac.target, Logic.Cover.eval_sigs lac.Core.Lac.cover ~pos_sigs))

let test_differential_benchmark_suite () =
  List.iter
    (fun name ->
      match Circuits.Suite.find name with
      | None -> Alcotest.failf "unknown benchmark %s" name
      | Some e ->
          let g = (e.Circuits.Suite.build) () in
          let rng = Logic.Rng.create 0xD1FF in
          let pats = Sim.Patterns.random rng ~npis:(Graph.num_pis g) ~len:248 in
          let base = Sim.Engine.simulate g pats in
          let targets = random_targets rng g ~count:3 in
          let specs = candidate_specs rng ~base ~targets in
          let lacs = lac_specs rng g ~base in
          if lacs = [] then Alcotest.failf "%s: no LAC candidates" name;
          let specs = specs @ lacs in
          List.iter
            (fun metric ->
              ignore (differential_check g ~metric ~pats ~specs : Errest.Batch.stats))
            all_metrics)
    [ "c880"; "c1908"; "c2670"; "mtp8" ]

let test_early_exit_counter () =
  (* y = (a AND b) AND c.  Flip x = a AND b exactly where c = 0: the
     difference dies at y, so the kernel must early-exit to the base error
     without materializing any PO. *)
  let g = Graph.create () in
  let a = Graph.add_pi g and b = Graph.add_pi g and c = Graph.add_pi g in
  let x = Graph.and_ g a b in
  let y = Graph.and_ g x c in
  ignore (Graph.add_po g y);
  let pats = Sim.Patterns.exhaustive ~npis:3 in
  let golden = Sim.Engine.simulate_pos g pats in
  let base = Sim.Engine.simulate g pats in
  let batch = Errest.Batch.create g ~metric:Metrics.Er ~golden ~base in
  let xn = Graph.node_of x and cn = Graph.node_of c in
  let new_sig = Bitvec.logxor base.(xn) (Bitvec.lognot base.(cn)) in
  let e = Errest.Batch.candidate_error batch ~node:xn ~new_sig in
  check "masked change keeps base error" true
    (Float.equal e (Errest.Batch.base_error batch));
  let s = Errest.Batch.stats batch in
  Alcotest.(check int) "one early exit" 1 s.Errest.Batch.early_exits;
  Alcotest.(check int) "frontier visited only y" 1 s.Errest.Batch.frontier_nodes;
  Alcotest.(check int) "no changed POs" 0 s.Errest.Batch.changed_pos;
  (* A trivial candidate is counted separately and touches no frontier. *)
  let e' = Errest.Batch.candidate_error batch ~node:xn ~new_sig:(Bitvec.copy base.(xn)) in
  check "trivial keeps base error" true (Float.equal e' (Errest.Batch.base_error batch));
  Alcotest.(check int) "trivial counted" 1 (Errest.Batch.stats batch).Errest.Batch.trivial

let test_kill_resume_bit_identity () =
  (* The journaled-resume guarantee must survive the kernel swap: a killed
     run resumed (at a different pool size) finishes with the same applied
     count, the same final sampled error to the last bit, and an equivalent
     circuit as the uninterrupted run. *)
  let config =
    { (Core.Config.default ~metric:Metrics.Er ~threshold:0.05) with
      Core.Config.eval_rounds = 1024; max_iters = 12; seed = 11 }
  in
  let g () = Circuits.Epfl_control.cavlc () in
  let a_full, r_full = Core.Flow.run ~config (g ()) in
  let dir = Filename.temp_file "alsrac_errest_resume" "" ^ ".d" in
  (match
     Core.Flow.run ~journal:dir
       ~config:
         { config with Core.Config.fault = [ Core.Fault.Kill_after { applied = 2 } ] }
       (g ())
   with
  | _ -> Alcotest.fail "expected the injected kill to fire"
  | exception Core.Fault.Killed -> ());
  let a_res, r_res = Core.Flow.resume ~jobs:2 dir in
  Alcotest.(check int) "same applied count" r_full.Core.Flow.applied
    r_res.Core.Flow.applied;
  Alcotest.(check int) "same final AND count" (Graph.num_ands a_full)
    (Graph.num_ands a_res);
  check "bit-identical final error" true
    (Float.equal r_full.Core.Flow.final_est_error r_res.Core.Flow.final_est_error);
  check "identical PO behaviour" true (Util.equivalent a_full a_res)

(* ---------- Certify ---------- *)

let test_hoeffding_margin_shrinks () =
  let m1 = Errest.Certify.hoeffding_margin ~samples:100 ~confidence:0.95 in
  let m2 = Errest.Certify.hoeffding_margin ~samples:10000 ~confidence:0.95 in
  check "more samples, smaller margin" true (m2 < m1);
  check "margin positive" true (m2 > 0.0);
  (* Known value: sqrt (ln 20 / 200) ~ 0.1224. *)
  Alcotest.(check (float 1e-4)) "known margin" 0.12239 m1

let test_certified_le () =
  check "certifies" true
    (Errest.Certify.certified_le ~sampled:0.005 ~samples:100000 ~confidence:0.95
       ~threshold:0.01);
  check "refuses on few samples" false
    (Errest.Certify.certified_le ~sampled:0.005 ~samples:100 ~confidence:0.95
       ~threshold:0.01)

let test_samples_needed_roundtrip () =
  let n = Errest.Certify.samples_needed ~margin:0.01 ~confidence:0.99 in
  check "enough" true
    (Errest.Certify.hoeffding_margin ~samples:n ~confidence:0.99 <= 0.01 +. 1e-12);
  check "tight" true
    (Errest.Certify.hoeffding_margin ~samples:(n - 100) ~confidence:0.99 > 0.01)

let test_certify_validation () =
  let bad_confidence = Invalid_argument "Certify: confidence must be in (0, 1)" in
  Alcotest.check_raises "confidence > 1" bad_confidence (fun () ->
      ignore (Errest.Certify.hoeffding_margin ~samples:10 ~confidence:1.5));
  Alcotest.check_raises "confidence = 1" bad_confidence (fun () ->
      ignore (Errest.Certify.hoeffding_margin ~samples:10 ~confidence:1.0));
  Alcotest.check_raises "confidence = 0" bad_confidence (fun () ->
      ignore (Errest.Certify.samples_needed ~margin:0.01 ~confidence:0.0));
  Alcotest.check_raises "zero samples"
    (Invalid_argument "Certify: sample count must be positive") (fun () ->
      ignore (Errest.Certify.hoeffding_margin ~samples:0 ~confidence:0.95));
  Alcotest.check_raises "negative samples"
    (Invalid_argument "Certify: sample count must be positive") (fun () ->
      ignore (Errest.Certify.upper_bound ~sampled:0.1 ~samples:(-1) ~confidence:0.95));
  Alcotest.check_raises "zero margin"
    (Invalid_argument "Certify: margin must be positive") (fun () ->
      ignore (Errest.Certify.samples_needed ~margin:0.0 ~confidence:0.95))

let test_certify_monotone () =
  (* Margin strictly shrinks as samples grow... *)
  let prev = ref infinity in
  List.iter
    (fun samples ->
      let m = Errest.Certify.hoeffding_margin ~samples ~confidence:0.999 in
      check "monotone in samples" true (m < !prev);
      prev := m)
    [ 10; 100; 1_000; 10_000; 100_000 ];
  (* ...and strictly grows with the confidence demanded. *)
  let prev = ref 0.0 in
  List.iter
    (fun confidence ->
      let m = Errest.Certify.hoeffding_margin ~samples:4096 ~confidence in
      check "monotone in confidence" true (m > !prev);
      prev := m)
    [ 0.5; 0.9; 0.99; 0.999; 0.9999 ]

(* samples_needed is the least count whose margin meets the request: the
   returned [n] suffices and [n - 1] does not. *)
let prop_samples_needed_minimal =
  QCheck.Test.make ~name:"samples_needed is minimal" ~count:200
    QCheck.(pair (float_range 0.001 0.3) (float_range 0.5 0.9999))
    (fun (margin, confidence) ->
      let n = Errest.Certify.samples_needed ~margin ~confidence in
      n >= 1
      && Errest.Certify.hoeffding_margin ~samples:n ~confidence <= margin +. 1e-12
      && (n = 1
         || Errest.Certify.hoeffding_margin ~samples:(n - 1) ~confidence
            > margin -. 1e-12))

(* ---------- Extended metric families (hand values) ---------- *)

(* golden values 1, 3, 4; approx values 0, 2, 6. *)
let hand_golden = [| vec "110"; vec "010"; vec "001" |]
let hand_approx = [| vec "000"; vec "011"; vec "001" |]

let test_mean_families_hand () =
  (* EDs 1, 1, 2; HDs 1, 1, 1 (3-bit codes). *)
  check_float "mse" 2.0 (Metrics.mse ~golden:hand_golden ~approx:hand_approx);
  check_float "mhd" 1.0 (Metrics.mhd ~golden:hand_golden ~approx:hand_approx);
  check_float "nmhd" (1.0 /. 3.0) (Metrics.nmhd ~golden:hand_golden ~approx:hand_approx);
  check_float "med" (4.0 /. 3.0) (Metrics.med ~golden:hand_golden ~approx:hand_approx);
  check_float "nmed" (4.0 /. 21.0) (Metrics.nmed ~golden:hand_golden ~approx:hand_approx)

let test_max_families_hand () =
  check_float "maxed" 2.0 (Metrics.max_ed ~golden:hand_golden ~approx:hand_approx);
  check_float "maxhd" 1.0 (Metrics.max_hd ~golden:hand_golden ~approx:hand_approx);
  (* REDs 1/1, 1/3, 2/4. *)
  check_float "maxred" 1.0 (Metrics.max_red ~golden:hand_golden ~approx:hand_approx);
  Alcotest.(check int) "worst-case ed" 2
    (Metrics.worst_case_ed ~golden:hand_golden ~approx:hand_approx)

let test_kind_classification () =
  Alcotest.(check int) "ten kinds" 10 (List.length Metrics.all_kinds);
  List.iter
    (fun k ->
      match Metrics.kind_of_string (Metrics.kind_to_string k) with
      | Some k' when k' = k -> ()
      | _ -> Alcotest.failf "kind %s does not round-trip" (Metrics.kind_to_string k))
    Metrics.all_kinds;
  check "unknown name rejected" true (Metrics.kind_of_string "wced" = None);
  check "max kinds" true
    (List.filter Metrics.is_max Metrics.all_kinds
    = [ Metrics.Maxed; Metrics.Maxhd; Metrics.Maxred ]);
  check "bounded means" true
    (List.filter Metrics.bounded_mean Metrics.all_kinds
    = [ Metrics.Er; Metrics.Nmed; Metrics.Nmhd ]);
  check "no kind is both max and bounded-mean" true
    (not
       (List.exists
          (fun k -> Metrics.is_max k && Metrics.bounded_mean k)
          Metrics.all_kinds))

let test_weighted_measure_hand () =
  (* golden values 1, 0; approx 0, 0 — only round 0 errs. *)
  let golden = [| vec "10" |] and approx = [| vec "00" |] in
  (* Probability-weighted mean: (1*1 + 3*0) / 4. *)
  check_float "weighted med" 0.25
    (Metrics.measure ~weights:[| 1.0; 3.0 |] Metrics.Med ~golden ~approx);
  check_float "weighted er" 0.25
    (Metrics.measure ~weights:[| 1.0; 3.0 |] Metrics.Er ~golden ~approx);
  (* A zero weight excludes a round from the worst-case support... *)
  check_float "maxed off-support" 0.0
    (Metrics.measure ~weights:[| 0.0; 1.0 |] Metrics.Maxed ~golden ~approx);
  (* ...while any positive weight keeps the unscaled metric weight: the
     worst case is never probability-scaled. *)
  check_float "maxed on-support" 1.0
    (Metrics.measure ~weights:[| 0.125; 1.0 |] Metrics.Maxed ~golden ~approx);
  let bad msg w =
    Alcotest.check_raises msg
      (Invalid_argument "Metrics: distribution weights must be finite and non-negative")
      (fun () -> ignore (Metrics.measure ~weights:w Metrics.Med ~golden ~approx))
  in
  bad "negative weight" [| 1.0; -1.0 |];
  bad "nan weight" [| 1.0; Float.nan |];
  Alcotest.check_raises "weight count"
    (Invalid_argument "Metrics: distribution weight count mismatch") (fun () ->
      ignore (Metrics.measure ~weights:[| 1.0 |] Metrics.Med ~golden ~approx));
  Alcotest.check_raises "zero total"
    (Invalid_argument "Metrics: distribution weights sum to zero") (fun () ->
      ignore (Metrics.measure ~weights:[| 0.0; 0.0 |] Metrics.Med ~golden ~approx))

(* ---------- Distr: enumerated input distributions ---------- *)

let test_distr_parse_and_roundtrip () =
  let lines = [ "# header comment"; ""; "0101 1.0"; "1111 0.25"; "0000 2.5" ] in
  match Distr.parse_lines lines with
  | Error e -> Alcotest.fail e
  | Ok d ->
      check "enum" true (Distr.is_enum d);
      check "unif is not enum" false (Distr.is_enum Distr.unif);
      Alcotest.(check (option int)) "npis" (Some 4) (Distr.npis d);
      Alcotest.(check (option int)) "unif npis" None (Distr.npis Distr.unif);
      Alcotest.(check int) "rows" 3 (Distr.num_rows d);
      (match Distr.of_string (Distr.to_string d) with
      | Ok d' -> check "journal round trip is bit-exact" true (Distr.equal d d')
      | Error e -> Alcotest.fail e);
      (match Distr.of_string "unif" with
      | Ok Distr.Unif -> ()
      | _ -> Alcotest.fail "unif must parse to Unif");
      check "fits 4-PI circuits" true (Distr.validate_npis d ~npis:4 = Ok ());
      check "rejects other widths" true (Result.is_error (Distr.validate_npis d ~npis:5));
      check "unif fits anything" true (Distr.validate_npis Distr.unif ~npis:64 = Ok ());
      (match Distr.round_weights d with
      | Some [| 1.0; 0.25; 2.5 |] -> ()
      | _ -> Alcotest.fail "round weights in file order");
      (* Signature orientation: one vector per PI, one round per row,
         leftmost file character = PI 0. *)
      let sigs = Distr.signatures d in
      Alcotest.(check int) "one signature per PI" 4 (Array.length sigs);
      check "pi0 over rounds" true (Bitvec.equal sigs.(0) (vec "010"));
      check "pi1 over rounds" true (Bitvec.equal sigs.(1) (vec "110"));
      check "pi2 over rounds" true (Bitvec.equal sigs.(2) (vec "010"));
      check "pi3 over rounds" true (Bitvec.equal sigs.(3) (vec "110"))

let test_distr_parse_errors () =
  let bad lines =
    match Distr.parse_lines lines with Ok _ -> false | Error _ -> true
  in
  check "ragged rows" true (bad [ "01 1"; "011 1" ]);
  check "bad weight" true (bad [ "01 x" ]);
  check "negative weight" true (bad [ "01 -1" ]);
  check "zero total" true (bad [ "01 0"; "10 0" ]);
  check "missing weight" true (bad [ "01" ]);
  check "empty file" true (bad [ "# nothing"; "" ]);
  check "non-binary pattern" true (bad [ "0x1 1" ]);
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  check "enum rejects empty" true
    (raises (fun () -> Distr.enum ~rows:[||] ~weights:[||]));
  check "enum rejects count mismatch" true
    (raises (fun () -> Distr.enum ~rows:[| [| true |] |] ~weights:[| 1.0; 2.0 |]))

let test_distr_sample_support () =
  let rows = [| [| false; true |]; [| true; false |] |] in
  let d = Distr.enum ~rows ~weights:[| 3.0; 1.0 |] in
  let rng = Logic.Rng.create 5 in
  let pats = Distr.sample d rng ~npis:2 ~len:400 in
  Alcotest.(check int) "one vector per PI" 2 (Array.length pats);
  let heavy = ref 0 in
  for m = 0 to 399 do
    let b0 = Bitvec.get pats.(0) m and b1 = Bitvec.get pats.(1) m in
    if (not b0) && b1 then incr heavy
    else if b0 && not b1 then ()
    else Alcotest.fail "sampled a round outside the support"
  done;
  check "weight-3 row dominates" true (!heavy > 200)

(* ---------- The metric x distribution matrix oracle ----------

   An independent naive reimplementation of every metric under every
   distribution shape: bits read one at a time with [Bitvec.get], values
   decoded by shifting, terms and weights recombined with the kernel's
   documented float-evaluation order (62-round blocked sums, per-round
   [term * (metric_weight * (p * scale))] association) so agreement can be
   demanded with [Float.equal] — zero tolerance, every cell. *)

let oracle_popcount x =
  let n = ref 0 and x = ref x in
  while !x <> 0 do
    n := !n + (!x land 1);
    x := !x lsr 1
  done;
  !n

let oracle_decode pos m =
  let v = ref 0 in
  Array.iteri (fun i s -> if Bitvec.get s m then v := !v lor (1 lsl i)) pos;
  !v

let oracle_sum_blocked len f =
  let acc = ref 0.0 and lo = ref 0 in
  while !lo < len do
    let hi = min len (!lo + Bitvec.word_bits) in
    let block = ref 0.0 in
    for m = !lo to hi - 1 do
      block := !block +. f m
    done;
    acc := !acc +. !block;
    lo := hi
  done;
  !acc

let oracle_term kind g a =
  match kind with
  | Metrics.Er -> if g = a then 0.0 else 1.0
  | Metrics.Med | Metrics.Nmed | Metrics.Mred | Metrics.Maxed | Metrics.Maxred ->
      float_of_int (abs (g - a))
  | Metrics.Mse ->
      let d = float_of_int (g - a) in
      d *. d
  | Metrics.Mhd | Metrics.Nmhd | Metrics.Maxhd ->
      float_of_int (oracle_popcount (g lxor a))

let oracle_metric_weight kind ~npos g =
  match kind with
  | Metrics.Er | Metrics.Med | Metrics.Mse | Metrics.Mhd | Metrics.Maxed
  | Metrics.Maxhd ->
      1.0
  | Metrics.Nmed ->
      1.0 /. (if npos = 0 then 1.0 else (2.0 ** float_of_int npos) -. 1.0)
  | Metrics.Nmhd -> 1.0 /. (if npos = 0 then 1.0 else float_of_int npos)
  | Metrics.Mred | Metrics.Maxred -> 1.0 /. float_of_int (max g 1)

let oracle_measure ?weights kind ~golden ~approx =
  let len = Bitvec.length golden.(0) in
  let npos = Array.length golden in
  let gv = Array.init len (oracle_decode golden) in
  let av = Array.init len (oracle_decode approx) in
  match (weights, kind) with
  | None, Metrics.Er ->
      let wrong = ref 0 in
      for m = 0 to len - 1 do
        if gv.(m) <> av.(m) then incr wrong
      done;
      float_of_int !wrong /. float_of_int len
  | None, Metrics.Nmed ->
      oracle_sum_blocked len (fun m -> float_of_int (abs (gv.(m) - av.(m))))
      /. float_of_int len
      /. ((2.0 ** float_of_int npos) -. 1.0)
  | None, Metrics.Mred ->
      oracle_sum_blocked len (fun m ->
          float_of_int (abs (gv.(m) - av.(m))) /. float_of_int (max gv.(m) 1))
      /. float_of_int len
  | _ ->
      let w = Array.init len (fun m -> oracle_metric_weight kind ~npos gv.(m)) in
      (match weights with
      | None -> ()
      | Some p ->
          if Metrics.is_max kind then
            Array.iteri (fun m pm -> if pm <= 0.0 then w.(m) <- 0.0) p
          else begin
            let total = Array.fold_left ( +. ) 0.0 p in
            let scale = float_of_int len /. total in
            Array.iteri (fun m pm -> w.(m) <- w.(m) *. (pm *. scale)) p
          end);
      let round m = oracle_term kind gv.(m) av.(m) *. w.(m) in
      if Metrics.is_max kind then begin
        let worst = ref 0.0 in
        for m = 0 to len - 1 do
          let t = round m in
          if t > !worst then worst := t
        done;
        !worst
      end
      else oracle_sum_blocked len round /. float_of_int len

(* A random single-node approximation of [g]: one AND node rebuilt onto an
   earlier literal, exactly the shape the LAC flow commits. *)
let mutate_graph rng g =
  let ands = ref [] in
  Graph.iter_ands g (fun id -> ands := id :: !ands);
  match Array.of_list !ands with
  | [||] -> g
  | arr ->
      let v = arr.(Logic.Rng.int rng (Array.length arr)) in
      let s = 1 + Logic.Rng.int rng (max 1 (v - 1)) in
      let compl = Logic.Rng.bool rng in
      Graph.rebuild
        ~replace:(fun id ->
          if id = v then Some (Graph.Replace_lit (Graph.make_lit s compl)) else None)
        g

let test_matrix_oracle_exhaustive () =
  for seed = 1 to 30 do
    let npis = 4 + (seed mod 9) in
    let profile =
      {
        Verify.Gen.npis;
        npos = 1 + (seed mod 6);
        nands = 20 + (seed mod 50);
        reconv = 0.35;
        compl_p = 0.5;
      }
    in
    let g = Verify.Gen.random ~profile seed in
    let rng = Logic.Rng.create (seed * 65537) in
    let h = mutate_graph rng g in
    let pats = Sim.Patterns.exhaustive ~npis in
    let len = 1 lsl npis in
    let golden = Sim.Engine.simulate_pos g pats in
    let approx = Sim.Engine.simulate_pos h pats in
    List.iter
      (fun metric ->
        List.iter
          (fun (cell, weights) ->
            let got = Metrics.measure ?weights metric ~golden ~approx in
            let want = oracle_measure ?weights metric ~golden ~approx in
            if not (Float.equal got want) then
              Alcotest.failf "seed %d metric %s cell %s: measure %.17g <> oracle %.17g"
                seed (Metrics.kind_to_string metric) cell got want;
            let via_graphs =
              Metrics.compare_graphs ?weights metric ~original:g ~approx:h pats
            in
            if not (Float.equal via_graphs want) then
              Alcotest.failf
                "seed %d metric %s cell %s: compare_graphs %.17g <> oracle %.17g"
                seed (Metrics.kind_to_string metric) cell via_graphs want)
          (matrix_weight_cells rng len))
      all_metrics
  done

let test_matrix_enum_support_oracle () =
  (* The end-to-end ENUM path: an enumerated distribution's signatures +
     round weights through [measure] must equal the naive oracle over the
     support, for every metric. *)
  for seed = 1 to 20 do
    let npis = 4 + (seed mod 7) in
    let profile =
      {
        Verify.Gen.npis;
        npos = 1 + (seed mod 6);
        nands = 20 + (seed mod 40);
        reconv = 0.35;
        compl_p = 0.5;
      }
    in
    let g = Verify.Gen.random ~profile (seed + 300) in
    let rng = Logic.Rng.create (seed * 131) in
    let h = mutate_graph rng g in
    let nrows = 3 + Logic.Rng.int rng 60 in
    let rows =
      Array.init nrows (fun _ -> Array.init npis (fun _ -> Logic.Rng.bool rng))
    in
    let weights = Array.init nrows (fun _ -> 0.125 +. (2.0 *. Logic.Rng.float rng)) in
    let d = Distr.enum ~rows ~weights in
    let pats = Distr.signatures d in
    Array.iteri
      (fun i s ->
        for m = 0 to nrows - 1 do
          if Bitvec.get s m <> rows.(m).(i) then
            Alcotest.fail "signature orientation: rows.(m).(i) = round m of PI i"
        done)
      pats;
    let golden = Sim.Engine.simulate_pos g pats in
    let approx = Sim.Engine.simulate_pos h pats in
    List.iter
      (fun metric ->
        let got =
          Metrics.measure ?weights:(Distr.round_weights d) metric ~golden ~approx
        in
        let want = oracle_measure ~weights metric ~golden ~approx in
        if not (Float.equal got want) then
          Alcotest.failf "seed %d metric %s: enum support %.17g <> oracle %.17g"
            seed (Metrics.kind_to_string metric) got want)
      all_metrics
  done

(* ---------- Maxerr: exact worst-case certification ---------- *)

let max_kinds = [ Metrics.Maxed; Metrics.Maxhd; Metrics.Maxred ]

let rational_of_round kind g a =
  match kind with
  | Metrics.Maxed -> (abs (g - a), 1)
  | Metrics.Maxhd -> (oracle_popcount (g lxor a), 1)
  | Metrics.Maxred -> (abs (g - a), max g 1)
  | _ -> assert false

(* Exact rational maximum by 2^n enumeration, compared with integer cross
   multiplication — no floats anywhere. *)
let brute_max_rational kind ~gv ~av =
  let best = ref (0, 1) in
  Array.iteri
    (fun m g ->
      let rn, rd = rational_of_round kind g av.(m) in
      let bn, bd = !best in
      if rn * bd > bn * rd then best := (rn, rd))
    gv;
  !best

let test_maxerr_certify_matches_brute_force () =
  for seed = 1 to 12 do
    let npis = 4 + (seed mod 6) in
    let profile =
      {
        Verify.Gen.npis;
        npos = 2 + (seed mod 5);
        nands = 25 + (seed mod 40);
        reconv = 0.35;
        compl_p = 0.5;
      }
    in
    let g = Verify.Gen.random ~profile seed in
    let rng = Logic.Rng.create (seed * 31) in
    let h = mutate_graph rng g in
    let pats = Sim.Patterns.exhaustive ~npis in
    let golden = Sim.Engine.simulate_pos g pats in
    let approx = Sim.Engine.simulate_pos h pats in
    let gv = Metrics.output_values golden and av = Metrics.output_values approx in
    List.iter
      (fun kind ->
        let bn, bd = brute_max_rational kind ~gv ~av in
        match Maxerr.certify kind ~original:g ~approx:h with
        | Maxerr.Undecided msg ->
            Alcotest.failf "seed %d %s: undecided: %s" seed
              (Metrics.kind_to_string kind) msg
        | Maxerr.Exact { max; num; den; refinements } ->
            if num * bd <> bn * den then
              Alcotest.failf "seed %d %s: certified %d/%d <> brute force %d/%d" seed
                (Metrics.kind_to_string kind) num den bn bd;
            check "certified float is the rational, correctly rounded" true
              (Float.equal max (float_of_int bn /. float_of_int bd));
            (* Integer-valued kinds: the certificate must equal the sampled
               measurement to the last bit. *)
            if kind <> Metrics.Maxred then
              check "certified max equals measured max" true
                (Float.equal max (Metrics.measure kind ~golden ~approx));
            (* An exhaustive starting sample already attains the true
               maximum, so the first miter must close the proof. *)
            Alcotest.(check int) "no refinement needed from an exhaustive start" 0
              refinements)
      max_kinds
  done

let test_maxerr_violation_miter_oracle () =
  (* The violation miter's single PO must be true exactly where the error
     strictly exceeds num/den — checked against all 2^n inputs. *)
  for seed = 1 to 8 do
    let npis = 3 + (seed mod 4) in
    let profile =
      {
        Verify.Gen.npis;
        npos = 2 + (seed mod 4);
        nands = 15 + seed;
        reconv = 0.3;
        compl_p = 0.5;
      }
    in
    let g = Verify.Gen.random ~profile (seed + 500) in
    let rng = Logic.Rng.create (seed * 77) in
    let h = mutate_graph rng g in
    let pats = Sim.Patterns.exhaustive ~npis in
    let gv = Metrics.output_values (Sim.Engine.simulate_pos g pats) in
    let av = Metrics.output_values (Sim.Engine.simulate_pos h pats) in
    List.iter
      (fun kind ->
        let bounds =
          match kind with
          | Metrics.Maxred -> [ (0, 1); (1, 2); (1, 1); (3, 2); (7, 3) ]
          | _ -> [ (0, 1); (1, 1); (2, 1); (5, 1) ]
        in
        List.iter
          (fun (num, den) ->
            let miter = Maxerr.violation kind ~original:g ~approx:h ~num ~den in
            Alcotest.(check int) "miter shares the PIs" npis (Graph.num_pis miter);
            Alcotest.(check int) "single violation output" 1 (Graph.num_pos miter);
            let got = (Sim.Engine.simulate_pos miter pats).(0) in
            let want =
              Bitvec.init (1 lsl npis) (fun m ->
                  let rn, rd = rational_of_round kind gv.(m) av.(m) in
                  rn * den > num * rd)
            in
            if not (Bitvec.equal got want) then
              Alcotest.failf "seed %d %s bound %d/%d: miter disagrees with oracle"
                seed (Metrics.kind_to_string kind) num den)
          bounds)
      max_kinds
  done

let test_maxerr_refinement_loop () =
  (* AND of 18 PIs vs constant 0: the single erring input (all ones) has
     probability 2^-18, so the 4096-round starting sample misses it and
     certification must climb to the true maximum through miter
     counterexamples — the witness-refinement loop itself. *)
  let g = Graph.create () in
  let lits = List.init 18 (fun _ -> Graph.add_pi g) in
  let conj =
    List.fold_left (fun acc l -> Graph.and_ g acc l) (List.hd lits) (List.tl lits)
  in
  ignore (Graph.add_po g conj);
  let h = Graph.create () in
  for _ = 1 to 18 do
    ignore (Graph.add_pi h)
  done;
  ignore (Graph.add_po h Graph.const0);
  (match Maxerr.certify Metrics.Maxed ~original:g ~approx:h with
  | Maxerr.Exact { max; num; den; refinements } ->
      check_float "true max is 1" 1.0 max;
      Alcotest.(check int) "num" 1 num;
      Alcotest.(check int) "den" 1 den;
      check "the sample missed it: a refinement was needed" true (refinements >= 1)
  | Maxerr.Undecided msg -> Alcotest.failf "undecided: %s" msg);
  match Maxerr.certified_le Metrics.Maxed ~original:g ~approx:h ~threshold:0.5 with
  | Ok ok -> check "max 1 exceeds threshold 0.5" false ok
  | Error msg -> Alcotest.failf "certified_le undecided: %s" msg

let test_maxerr_validation () =
  let g = Graph.create () in
  let a = Graph.add_pi g in
  ignore (Graph.add_po g a);
  Alcotest.check_raises "mean metric rejected"
    (Invalid_argument "Maxerr.certify: not a max metric") (fun () ->
      ignore (Maxerr.certify Metrics.Er ~original:g ~approx:g));
  let h = Graph.create () in
  ignore (Graph.add_pi h);
  ignore (Graph.add_pi h);
  ignore (Graph.add_po h Graph.const0);
  Alcotest.check_raises "interface mismatch"
    (Invalid_argument "Maxerr.certify: PI count mismatch") (fun () ->
      ignore (Maxerr.certify Metrics.Maxed ~original:g ~approx:h))

(* ---------- Properties (with shrinking) ---------- *)

(* Same interface, every PO constant 0: a maximally-wrong approximation
   that shrinks along with the circuit. *)
let const0_like g =
  let h = Graph.create () in
  for _ = 1 to Graph.num_pis g do
    ignore (Graph.add_pi h)
  done;
  Graph.iter_pos g (fun _ _ -> ignore (Graph.add_po h Graph.const0));
  h

let prop_profile =
  { Verify.Gen.npis = 8; npos = 5; nands = 50; reconv = 0.4; compl_p = 0.5 }

let test_prop_mhd_bounded_by_er () =
  Verify.Prop.check_exn ~profile:prop_profile ~name:"mhd <= npos * er" ~seed:100
    ~count:40 (fun g ->
      let npis = Graph.num_pis g and npos = Graph.num_pos g in
      if npos = 0 then Ok ()
      else begin
        let pats = Sim.Patterns.exhaustive ~npis in
        let golden = Sim.Engine.simulate_pos g pats in
        let approx = Sim.Engine.simulate_pos (const0_like g) pats in
        let mhd = Metrics.mhd ~golden ~approx and er = Metrics.er ~golden ~approx in
        if mhd <= (float_of_int npos *. er) +. 1e-9 then Ok ()
        else
          Error
            (Printf.sprintf "mhd %.17g > %d * er %.17g" mhd npos er)
      end)

let test_prop_enum_uniform_is_unif () =
  (* Uniform enumerated weights must change NOTHING: the effective
     multiplier is exactly 1.0, so weighted measurement is bit-identical to
     the unweighted prepared path for every metric. *)
  Verify.Prop.check_exn ~profile:prop_profile
    ~name:"uniform enum weights are the uniform distribution" ~seed:200 ~count:30
    (fun g ->
      if Graph.num_pos g = 0 then Ok ()
      else begin
        let pats = Sim.Patterns.exhaustive ~npis:(Graph.num_pis g) in
        let len = 1 lsl Graph.num_pis g in
        let golden = Sim.Engine.simulate_pos g pats in
        let approx = Sim.Engine.simulate_pos (const0_like g) pats in
        let uniform = Array.make len 1.0 in
        let rec go = function
          | [] -> Ok ()
          | kind :: rest ->
              let weighted = Metrics.measure ~weights:uniform kind ~golden ~approx in
              let plain =
                Metrics.measure_prepared (Metrics.prepare kind ~golden) ~approx
              in
              if Float.equal weighted plain then go rest
              else
                Error
                  (Printf.sprintf "%s: weighted %.17g <> unweighted %.17g"
                     (Metrics.kind_to_string kind) weighted plain)
        in
        go all_metrics
      end)

let test_prop_sampled_max_lower_bounds () =
  (* A sampled maximum ranges over a subset of the per-round terms the
     exhaustive maximum ranges over, so it can never exceed it — as exact
     floats, no tolerance. *)
  Verify.Prop.check_exn ~profile:prop_profile
    ~name:"sampled max never exceeds the exhaustive max" ~seed:300 ~count:30
    (fun g ->
      if Graph.num_pos g = 0 then Ok ()
      else begin
        let npis = Graph.num_pis g in
        let h = const0_like g in
        let full = Sim.Patterns.exhaustive ~npis in
        let rng = Logic.Rng.create ((Graph.num_ands g * 17) + 1) in
        let sample = Sim.Patterns.random rng ~npis ~len:128 in
        let rec go = function
          | [] -> Ok ()
          | kind :: rest ->
              let exact = Metrics.compare_graphs kind ~original:g ~approx:h full in
              let sampled = Metrics.compare_graphs kind ~original:g ~approx:h sample in
              if sampled <= exact then go rest
              else
                Error
                  (Printf.sprintf "%s: sampled %.17g > exhaustive %.17g"
                     (Metrics.kind_to_string kind) sampled exact)
        in
        go max_kinds
      end)

let sigs_of_values npos vs =
  Array.init npos (fun i ->
      Bitvec.init (Array.length vs) (fun m -> (vs.(m) lsr i) land 1 = 1))

let test_prop_prefix_max_monotone () =
  (* Value-level property with shrinking: over any pair of output-value
     sequences, the max metrics are monotone in the observed prefix and
     every prefix is bounded by the full maximum. *)
  let gen seed =
    let rng = Logic.Rng.create (0xBEEF + seed) in
    let n = 1 + Logic.Rng.int rng 80 in
    ( Array.init n (fun _ -> Logic.Rng.int rng 256),
      Array.init n (fun _ -> Logic.Rng.int rng 256) )
  in
  let shrink (gv, av) =
    let n = Array.length gv in
    if n <= 1 then []
    else
      [
        (Array.sub gv 0 (n / 2), Array.sub av 0 (n / 2));
        (Array.sub gv 0 (n - 1), Array.sub av 0 (n - 1));
      ]
  in
  let repr (gv, av) =
    Printf.sprintf "%d rounds, first pair (%d, %d)" (Array.length gv) gv.(0) av.(0)
  in
  Verify.Prop.check_value_exn ~name:"prefix maxima are monotone" ~seed:900 ~count:50
    ~gen ~shrink ~repr (fun (gv, av) ->
      let n = Array.length gv in
      let golden = sigs_of_values 8 gv and approx = sigs_of_values 8 av in
      let prefix kind k =
        Metrics.measure kind
          ~golden:(Array.map (fun s -> Bitvec.init k (Bitvec.get s)) golden)
          ~approx:(Array.map (fun s -> Bitvec.init k (Bitvec.get s)) approx)
      in
      let rec per_kind = function
        | [] -> Ok ()
        | kind :: rest ->
            let full = prefix kind n in
            let rec loop k prev =
              if k > n then per_kind rest
              else
                let p = prefix kind k in
                if p > full then
                  Error
                    (Printf.sprintf "%s: prefix %d max %.17g > full %.17g"
                       (Metrics.kind_to_string kind) k p full)
                else if p < prev then
                  Error
                    (Printf.sprintf "%s: prefix max shrank at %d (%.17g < %.17g)"
                       (Metrics.kind_to_string kind) k p prev)
                else loop (k + 7) p
            in
            loop 1 0.0
      in
      per_kind max_kinds)

(* ---------- Flow certificates: the right bound family, and only it ---------- *)

let test_flow_max_miter_certificate () =
  (* ctrl has 7 PIs, so eval_rounds 256 makes the evaluation exhaustive:
     the sampled max IS the true max, and the miter certificate must agree
     with it to the last bit. *)
  let config =
    {
      (Core.Config.default ~metric:Metrics.Maxed ~threshold:6.0) with
      Core.Config.eval_rounds = 256;
      max_iters = 6;
      seed = 3;
    }
  in
  let g = Circuits.Epfl_control.ctrl () in
  let _, r = Core.Flow.run ~config g in
  match r.Core.Flow.certified with
  | Some { Core.Flow.upper; family = Core.Flow.Max_miter } ->
      check "certified max equals the exhaustively sampled max" true
        (Float.equal upper r.Core.Flow.final_est_error);
      check "certified within the budget" true (upper <= 6.0)
  | Some { Core.Flow.family; _ } ->
      Alcotest.failf "expected max-miter, got %s" (Core.Flow.family_to_string family)
  | None -> Alcotest.fail "expected a max-miter certificate"

let test_flow_never_hoeffding_for_max () =
  (* Monte-Carlo evaluation (512 < 2^10 rounds on cavlc): a mean metric
     earns a Hoeffding certificate, a max metric NEVER does — its sampled
     value bounds the truth from below, so the only sound families are the
     miter proof or nothing. *)
  let run metric threshold =
    let config =
      {
        (Core.Config.default ~metric ~threshold) with
        Core.Config.eval_rounds = 512;
        max_iters = 4;
        seed = 7;
      }
    in
    snd (Core.Flow.run ~config (Circuits.Epfl_control.cavlc ()))
  in
  let r_mean = run Metrics.Er 0.05 in
  (match r_mean.Core.Flow.certified with
  | Some { Core.Flow.upper; family = Core.Flow.Hoeffding } ->
      check "hoeffding upper bounds the sample" true
        (upper >= r_mean.Core.Flow.final_est_error)
  | Some { Core.Flow.family; _ } ->
      Alcotest.failf "er run: expected hoeffding, got %s"
        (Core.Flow.family_to_string family)
  | None -> Alcotest.fail "er run: expected a hoeffding certificate");
  let r_max = run Metrics.Maxed 2.0 in
  match r_max.Core.Flow.certified with
  | Some { Core.Flow.family = Core.Flow.Hoeffding; _ } ->
      Alcotest.fail "a max-metric report claimed a Hoeffding bound"
  | Some { Core.Flow.upper; family = Core.Flow.Max_miter } ->
      check "sampled max is a lower bound on the proven max" true
        (upper >= r_max.Core.Flow.final_est_error)
  | Some { Core.Flow.family = Core.Flow.Exhaustive; _ } ->
      Alcotest.fail "monte-carlo evaluation cannot be exhaustive"
  | None ->
      (* An undecided miter is a sound reason to certify nothing; claiming
         Hoeffding would not be. *)
      ()

let test_flow_enum_exhaustive_certificate () =
  (* An enumerated distribution is measured exactly over its support, so
     the certificate is the measurement itself, family Exhaustive. *)
  let rows = Array.init 12 (fun m -> Array.init 7 (fun i -> (m lsr i) land 1 = 1)) in
  let weights = Array.init 12 (fun m -> 1.0 +. float_of_int (m mod 3)) in
  let config =
    {
      (Core.Config.default ~metric:Metrics.Er ~threshold:0.25) with
      Core.Config.eval_rounds = 256;
      max_iters = 4;
      seed = 5;
      distr = Distr.enum ~rows ~weights;
    }
  in
  let _, r = Core.Flow.run ~config (Circuits.Epfl_control.ctrl ()) in
  match r.Core.Flow.certified with
  | Some { Core.Flow.upper; family = Core.Flow.Exhaustive } ->
      check "exact over the support" true
        (Float.equal upper r.Core.Flow.final_est_error)
  | Some { Core.Flow.family; _ } ->
      Alcotest.failf "expected exhaustive, got %s" (Core.Flow.family_to_string family)
  | None -> Alcotest.fail "expected an exhaustive certificate"

let test_maxed_kill_resume_bit_identity () =
  (* The resume guarantee must hold for a worst-case-error run too: same
     final sampled max, same certificate, equivalent circuit. *)
  let config =
    {
      (Core.Config.default ~metric:Metrics.Maxed ~threshold:2.0) with
      Core.Config.eval_rounds = 1024;
      max_iters = 10;
      seed = 13;
    }
  in
  let g () = Circuits.Epfl_control.cavlc () in
  let a_full, r_full = Core.Flow.run ~config (g ()) in
  let dir = Filename.temp_file "alsrac_errest_maxresume" "" ^ ".d" in
  (match
     Core.Flow.run ~journal:dir
       ~config:
         { config with Core.Config.fault = [ Core.Fault.Kill_after { applied = 1 } ] }
       (g ())
   with
  | _ -> Alcotest.fail "expected the injected kill to fire"
  | exception Core.Fault.Killed -> ());
  let a_res, r_res = Core.Flow.resume ~jobs:2 dir in
  Alcotest.(check int) "same applied count" r_full.Core.Flow.applied
    r_res.Core.Flow.applied;
  check "bit-identical final sampled max" true
    (Float.equal r_full.Core.Flow.final_est_error r_res.Core.Flow.final_est_error);
  (match (r_full.Core.Flow.certified, r_res.Core.Flow.certified) with
  | Some a, Some b ->
      check "same certified upper bound" true
        (Float.equal a.Core.Flow.upper b.Core.Flow.upper);
      check "same bound family" true (a.Core.Flow.family = b.Core.Flow.family)
  | None, None -> ()
  | _ -> Alcotest.fail "certificates diverged across resume");
  check "identical PO behaviour" true (Util.equivalent a_full a_res)

let () =
  Alcotest.run "errest"
    [
      ( "metrics",
        [
          Alcotest.test_case "er basic" `Quick test_er_basic;
          Alcotest.test_case "er equal" `Quick test_er_zero_on_equal;
          Alcotest.test_case "output values" `Quick test_output_values;
          Alcotest.test_case "mean ed" `Quick test_mean_ed;
          Alcotest.test_case "nmed" `Quick test_nmed;
          Alcotest.test_case "mred" `Quick test_mred;
          Alcotest.test_case "mred zero guard" `Quick test_mred_zero_guard;
          Alcotest.test_case "shape mismatch" `Quick test_shape_mismatch;
          Alcotest.test_case "compare graphs" `Quick test_compare_graphs_exact;
          Alcotest.test_case "evaluate known" `Quick test_evaluate_known_er;
        ] );
      ( "observability",
        [
          Alcotest.test_case "exact on trees" `Quick test_observability_tree_exact;
          Alcotest.test_case "po drivers / agreement" `Quick test_observability_po_drivers_full;
        ] );
      ( "batch",
        [ Alcotest.test_case "base error" `Quick test_batch_base_error_zero ]
        @ Util.qcheck_cases [ prop_batch_equals_rebuild ] );
      ( "differential",
        [
          Alcotest.test_case "random circuits vs oracle" `Quick
            test_differential_random_circuits;
          Alcotest.test_case "wide POs vs oracle" `Quick test_differential_wide_pos;
          Alcotest.test_case "jobs invariance" `Quick test_differential_jobs_invariance;
          Alcotest.test_case "benchmark suite vs oracle" `Quick
            test_differential_benchmark_suite;
          Alcotest.test_case "early exit + counters" `Quick test_early_exit_counter;
          Alcotest.test_case "kill and resume bit identity" `Slow
            test_kill_resume_bit_identity;
        ] );
      ( "certify",
        [
          Alcotest.test_case "margin shrinks" `Quick test_hoeffding_margin_shrinks;
          Alcotest.test_case "certified_le" `Quick test_certified_le;
          Alcotest.test_case "samples needed" `Quick test_samples_needed_roundtrip;
          Alcotest.test_case "validation" `Quick test_certify_validation;
          Alcotest.test_case "monotonicity" `Quick test_certify_monotone;
        ]
        @ Util.qcheck_cases [ prop_samples_needed_minimal ] );
      ( "metrics-ext",
        [
          Alcotest.test_case "mean families hand values" `Quick test_mean_families_hand;
          Alcotest.test_case "max families hand values" `Quick test_max_families_hand;
          Alcotest.test_case "kind classification" `Quick test_kind_classification;
          Alcotest.test_case "weighted measurement" `Quick test_weighted_measure_hand;
        ] );
      ( "distr",
        [
          Alcotest.test_case "parse and round trip" `Quick test_distr_parse_and_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_distr_parse_errors;
          Alcotest.test_case "sampling stays on support" `Quick test_distr_sample_support;
        ] );
      ( "matrix-oracle",
        [
          Alcotest.test_case "every metric x every distribution shape" `Quick
            test_matrix_oracle_exhaustive;
          Alcotest.test_case "enumerated support end to end" `Quick
            test_matrix_enum_support_oracle;
        ] );
      ( "maxerr",
        [
          Alcotest.test_case "certify equals 2^n brute force" `Quick
            test_maxerr_certify_matches_brute_force;
          Alcotest.test_case "violation miter vs oracle" `Quick
            test_maxerr_violation_miter_oracle;
          Alcotest.test_case "witness refinement loop" `Slow test_maxerr_refinement_loop;
          Alcotest.test_case "validation" `Quick test_maxerr_validation;
        ] );
      ( "properties",
        [
          Alcotest.test_case "mhd bounded by npos * er" `Quick test_prop_mhd_bounded_by_er;
          Alcotest.test_case "uniform enum weights change nothing" `Quick
            test_prop_enum_uniform_is_unif;
          Alcotest.test_case "sampled max lower-bounds exhaustive" `Quick
            test_prop_sampled_max_lower_bounds;
          Alcotest.test_case "prefix maxima monotone" `Quick test_prop_prefix_max_monotone;
        ] );
      ( "flow-certificates",
        [
          Alcotest.test_case "max-miter family on exhaustive eval" `Slow
            test_flow_max_miter_certificate;
          Alcotest.test_case "never hoeffding for a max metric" `Slow
            test_flow_never_hoeffding_for_max;
          Alcotest.test_case "enum distribution is exhaustive" `Slow
            test_flow_enum_exhaustive_certificate;
          Alcotest.test_case "maxed kill and resume bit identity" `Slow
            test_maxed_kill_resume_bit_identity;
        ] );
    ]
