(* Tests for the verification subsystem (lib/verify):

   - Cec fundamentals: proven equivalence, validated counterexamples,
     interface-mismatch rejection, determinism of verdicts.
   - Satellite 1: property-based equivalence of every exact transform over
     hundreds of seeded random circuits.
   - Satellite 2: differential mapping — LUT and cell mapping proven
     equivalent to their source AIGs (random graphs + the benchmark suite).
   - Satellite 3: brute-force oracles for Errest.Metrics and containment of
     the Errest.Certify bound.
   - Satellite 4: mutation self-test — seeded single-gate faults must be
     flagged with a validated counterexample, never passed.
   - Prop/Gen self-tests: shrinking, dumping, seed determinism.
   - Flow integration: --certify-exact verdicts in the report.

   The CI seed matrix sets ALSRAC_PROP_SEED; every generated circuit in this
   file derives from it, so each matrix entry exercises a disjoint circuit
   population while staying bit-reproducible. *)

module Graph = Aig.Graph
module Cec = Verify.Cec
module Gen = Verify.Gen
module Prop = Verify.Prop

let seed_base =
  match Sys.getenv_opt "ALSRAC_PROP_SEED" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some k -> k * 1_000_000
      | None -> Alcotest.failf "ALSRAC_PROP_SEED is not an integer: %S" s)
  | None -> 1_000_000

let dump_dir = Sys.getenv_opt "ALSRAC_PROP_DUMP"

(* Alcotest wrapper: run a Prop check and fail with the reproducer line. *)
let prop_case name ?profile ~count prop =
  match Prop.check ?profile ?dump_dir ~name ~seed:seed_base ~count prop with
  | Prop.Passed _ -> ()
  | Prop.Failed f -> Alcotest.fail (Prop.failure_to_string ~name f)

let cec_ok g h =
  match Cec.run g h with
  | Cec.Equivalent -> Ok ()
  | v -> Error (Cec.verdict_to_string v)

(* ------------------------------------------------------------------ *)
(* Cec fundamentals                                                    *)
(* ------------------------------------------------------------------ *)

let test_cec_identical () =
  List.iter
    (fun name ->
      let e = Option.get (Circuits.Suite.find name) in
      let g = e.Circuits.Suite.build () in
      match Cec.run g g with
      | Cec.Equivalent -> ()
      | v -> Alcotest.failf "%s vs itself: %s" name (Cec.verdict_to_string v))
    [ "c880"; "rca32" ]

let test_cec_inequivalent_basic () =
  (* AND vs OR on two inputs: differ on 01, 10. *)
  let mk op =
    let g = Graph.create ~name:"t" () in
    let a = Graph.add_pi g and b = Graph.add_pi g in
    ignore (Graph.add_po g (op g a b));
    g
  in
  let g_and = mk (fun g a b -> Graph.and_ g a b) in
  let g_or =
    mk (fun g a b -> Graph.lit_not (Graph.and_ g (Graph.lit_not a) (Graph.lit_not b)))
  in
  match Cec.run g_and g_or with
  | Cec.Inequivalent cex ->
      Alcotest.(check bool) "cex validates" true (Cec.holds g_and g_or cex);
      Alcotest.(check bool) "values differ" true (cex.Cec.value_a <> cex.Cec.value_b)
  | v -> Alcotest.failf "AND vs OR: %s" (Cec.verdict_to_string v)

let test_cec_interface_mismatch () =
  let g1 = Gen.random ~profile:{ Gen.default with npis = 4 } seed_base in
  let g2 = Gen.random ~profile:{ Gen.default with npis = 5 } seed_base in
  Alcotest.check_raises "PI mismatch rejected"
    (Invalid_argument "Verify.Cec.run: PI count mismatch") (fun () ->
      ignore (Cec.run g1 g2))

let test_cec_wide_transform () =
  (* Wide circuits (no exhaustive closure): miter sweeping + support closure
     must still prove exact transforms equivalent. *)
  let profile = { Gen.default with npis = 40; npos = 6; nands = 300 } in
  for i = 0 to 4 do
    let g = Gen.random ~profile (seed_base + (77 * i)) in
    let h = Aig.Resyn.compress2 g in
    match Cec.run g h with
    | Cec.Equivalent -> ()
    | v ->
        Alcotest.failf "compress2 on 40-PI graph (seed %d): %s"
          (seed_base + (77 * i))
          (Cec.verdict_to_string v)
  done

let test_cec_deterministic () =
  let g = Gen.random ~profile:{ Gen.default with npis = 20; nands = 120 } seed_base in
  match Gen.mutate ~seed:(seed_base + 1) g with
  | None -> Alcotest.fail "no mutation site"
  | Some (h, _) ->
      let v1 = Cec.run ~seed:9 g h and v2 = Cec.run ~seed:9 g h in
      Alcotest.(check string) "same verdict" (Cec.verdict_to_string v1)
        (Cec.verdict_to_string v2)

(* ------------------------------------------------------------------ *)
(* Satellite 1: every exact transform, property-checked                *)
(* ------------------------------------------------------------------ *)

let transforms =
  [
    ("balance", Aig.Balance.run);
    ("rewrite", fun g -> Aig.Rewrite.run g);
    ("refactor", fun g -> Aig.Refactor.run g);
    ("resyn_light", Aig.Resyn.light);
    ("compress2", fun g -> Aig.Resyn.compress2 g);
    ("strash_dce", Graph.compact);
    ("fraig", fun g -> Sim.Fraig.run g);
  ]

let test_transform_equivalence () =
  List.iter
    (fun (name, f) ->
      prop_case ("transform-" ^ name) ~count:200 (fun g -> cec_ok g (f g)))
    transforms

let test_transform_equivalence_reconvergent () =
  (* A second population: deeper, heavily reconvergent cones where rewriting
     and refactoring actually fire. *)
  let profile = { Gen.npis = 10; npos = 4; nands = 150; reconv = 0.85; compl_p = 0.5 } in
  List.iter
    (fun (name, f) ->
      prop_case ("transform-reconv-" ^ name) ~profile ~count:60 (fun g ->
          cec_ok g (f g)))
    transforms

let test_transform_suite () =
  (* Acceptance criterion: Equivalent on exact-transform pairs from the
     benchmark suite itself (bounded by size so the run stays quick).
     Beyond ~80 PIs the portfolio's known frontier is compressor-tree
     majority logic (voter), where closing the miter needs SAT; there an
     honest Undecided is accepted but a refutation never is. *)
  Circuits.Suite.all
  |> List.iter (fun e ->
         let g = e.Circuits.Suite.build () in
         if Graph.num_ands g <= 1000 && Graph.num_pis g >= 1 then
           List.iter
             (fun (name, f) ->
               match Cec.run g (f g) with
               | Cec.Equivalent -> ()
               | Cec.Undecided _ when Graph.num_pis g > 80 -> ()
               | v ->
                   Alcotest.failf "%s under %s: %s" e.Circuits.Suite.name name
                     (Cec.verdict_to_string v))
             [ ("balance", Aig.Balance.run); ("compress2", fun g -> Aig.Resyn.compress2 g) ])

(* ------------------------------------------------------------------ *)
(* Satellite 2: differential mapping                                   *)
(* ------------------------------------------------------------------ *)

let test_mapping_random () =
  let profile = { Gen.npis = 10; npos = 4; nands = 120; reconv = 0.6; compl_p = 0.5 } in
  List.iter
    (fun (name, map) ->
      prop_case ("map-" ^ name) ~profile ~count:100 (fun g ->
          let m = map g in
          match Cec.run g (Techmap.Mapped.to_graph m) with
          | Cec.Equivalent -> Ok ()
          | v -> Error (Cec.verdict_to_string v)))
    [
      ("lut", fun g -> Techmap.Lutmap.run g);
      ("cell", fun g -> Techmap.Cellmap.run g);
    ]

let test_mapping_suite () =
  Circuits.Suite.all
  |> List.iter (fun e ->
         let g = e.Circuits.Suite.build () in
         if Graph.num_ands g <= 600 then
           List.iter
             (fun (name, map) ->
               let m = map g in
               match Cec.run g (Techmap.Mapped.to_graph m) with
               | Cec.Equivalent -> ()
               | Cec.Inequivalent cex ->
                   Alcotest.failf "%s %s-mapped: inequivalent on PO %d"
                     e.Circuits.Suite.name name cex.Cec.po
               | Cec.Undecided msg ->
                   (* Wide circuits may defeat the bounded portfolio; only a
                      refutation is a failure, but small-PI circuits must
                      close. *)
                   if Graph.num_pis g <= 14 then
                     Alcotest.failf "%s %s-mapped: undecided (%s)"
                       e.Circuits.Suite.name name msg)
             [
               ("lut", fun g -> Techmap.Lutmap.run g);
               ("cell", fun g -> Techmap.Cellmap.run g);
             ])

(* ------------------------------------------------------------------ *)
(* Satellite 3: brute-force oracles for Errest                         *)
(* ------------------------------------------------------------------ *)

(* Exhaustive reference metrics by naive evaluation: mirrors the documented
   conventions (PO 0 = LSB; NMED denominator 2^O - 1; MRED denominator
   max(golden, 1)) without sharing any code with Errest. *)
let oracle_metrics g approx =
  let npis = Graph.num_pis g and npos = Graph.num_pos g in
  assert (npis <= 12);
  let total = 1 lsl npis in
  let err_rounds = ref 0 and sum_ed = ref 0.0 and sum_red = ref 0.0 in
  for m = 0 to total - 1 do
    let inputs = Util.bools_of_int m npis in
    let vg = Util.int_of_bools (Util.eval_naive g inputs) in
    let va = Util.int_of_bools (Util.eval_naive approx inputs) in
    if vg <> va then incr err_rounds;
    let d = float_of_int (abs (vg - va)) in
    sum_ed := !sum_ed +. d;
    sum_red := !sum_red +. (d /. float_of_int (max vg 1))
  done;
  let n = float_of_int total in
  let er = float_of_int !err_rounds /. n in
  let nmed = !sum_ed /. n /. float_of_int ((1 lsl npos) - 1) in
  let mred = !sum_red /. n in
  (er, nmed, mred)

let metric_pairs =
  (* Same interface, different functions: the generator is deterministic in
     (profile, seed), so two seeds give comparable circuits. *)
  let profile = { Gen.npis = 9; npos = 4; nands = 70; reconv = 0.5; compl_p = 0.5 } in
  List.init 6 (fun i ->
      ( Gen.random ~profile (seed_base + (1000 * i)),
        Gen.random ~profile (seed_base + (1000 * i) + 500) ))

let test_metrics_oracle () =
  let close what a b =
    if Float.abs (a -. b) > 1e-9 then Alcotest.failf "%s: oracle %.12g vs %.12g" what a b
  in
  List.iteri
    (fun i (g, approx) ->
      let er, nmed, mred = oracle_metrics g approx in
      let pats = Sim.Patterns.exhaustive ~npis:(Graph.num_pis g) in
      let m k = Errest.Metrics.compare_graphs k ~original:g ~approx pats in
      close (Printf.sprintf "pair %d ER" i) er (m Errest.Metrics.Er);
      close (Printf.sprintf "pair %d NMED" i) nmed (m Errest.Metrics.Nmed);
      close (Printf.sprintf "pair %d MRED" i) mred (m Errest.Metrics.Mred);
      (* evaluate takes the exhaustive path for 9 PIs. *)
      close
        (Printf.sprintf "pair %d evaluate ER" i)
        er
        (Errest.Metrics.evaluate Errest.Metrics.Er ~original:g ~approx))
    metric_pairs

let test_certify_contains_truth () =
  (* The Hoeffding upper bound on a 2048-round sample must lie above the
     exhaustive truth for the [0,1]-bounded metrics. *)
  List.iteri
    (fun i (g, approx) ->
      let er, nmed, _ = oracle_metrics g approx in
      let rng = Logic.Rng.create (seed_base + i) in
      let pats = Sim.Patterns.random rng ~npis:(Graph.num_pis g) ~len:2048 in
      List.iter
        (fun (what, kind, truth) ->
          let sampled = Errest.Metrics.compare_graphs kind ~original:g ~approx pats in
          let ub =
            Errest.Certify.upper_bound ~sampled ~samples:2048 ~confidence:0.999
          in
          if ub < truth then
            Alcotest.failf "pair %d %s: certified bound %.6g below truth %.6g" i what
              ub truth)
        [ ("ER", Errest.Metrics.Er, er); ("NMED", Errest.Metrics.Nmed, nmed) ])
    metric_pairs

(* ------------------------------------------------------------------ *)
(* Satellite 4: mutation self-test                                     *)
(* ------------------------------------------------------------------ *)

let test_mutation_detection () =
  (* Collect >= 100 genuinely function-changing single-gate mutants (screened
     by the exhaustive naive oracle, which shares no code with Cec) and
     demand a validated refutation for every one.  Functionally silent
     mutants must conversely be proven equivalent. *)
  let profile = { Gen.npis = 8; npos = 3; nands = 80; reconv = 0.6; compl_p = 0.5 } in
  let differing = ref 0 and silent = ref 0 and seed = ref 0 in
  while !differing < 100 && !seed < 600 do
    let s = seed_base + !seed in
    incr seed;
    let g = Gen.random ~profile s in
    match Gen.mutate ~seed:(s + 31337) g with
    | None -> ()
    | Some (h, mutation) -> (
        let really_differs = not (Util.equivalent g h) in
        match Cec.run g h with
        | Cec.Equivalent ->
            if really_differs then
              Alcotest.failf
                "seed %d: false equivalence for function-changing mutation %s" s
                (Gen.mutation_to_string mutation)
            else incr silent
        | Cec.Undecided msg ->
            Alcotest.failf "seed %d: undecided on an 8-PI mutant (%s)" s msg
        | Cec.Inequivalent cex ->
            if not really_differs then
              Alcotest.failf "seed %d: refuted a silent mutation %s" s
                (Gen.mutation_to_string mutation);
            (* Acceptance criterion: the vector must reproduce on both
               circuits — checked by Cec.holds and independently by the naive
               evaluator. *)
            if not (Cec.holds g h cex) then
              Alcotest.failf "seed %d: counterexample does not validate" s;
            let va = (Util.eval_naive g cex.Cec.inputs).(cex.Cec.po) in
            let vb = (Util.eval_naive h cex.Cec.inputs).(cex.Cec.po) in
            if va <> cex.Cec.value_a || vb <> cex.Cec.value_b then
              Alcotest.failf "seed %d: recorded PO values wrong" s;
            incr differing)
  done;
  if !differing < 100 then
    Alcotest.failf "only %d function-changing mutants in %d seeds (%d silent)"
      !differing !seed !silent

(* ------------------------------------------------------------------ *)
(* Prop / Gen self-tests                                               *)
(* ------------------------------------------------------------------ *)

let test_gen_deterministic () =
  let profile = { Gen.npis = 12; npos = 5; nands = 90; reconv = 0.7; compl_p = 0.4 } in
  let a = Gen.random ~profile (seed_base + 5) in
  let b = Gen.random ~profile (seed_base + 5) in
  Alcotest.(check string) "same seed, same graph"
    (Circuit_io.Aiger.graph_to_string a)
    (Circuit_io.Aiger.graph_to_string b);
  let c = Gen.random ~profile (seed_base + 6) in
  Alcotest.(check bool) "different seed, different graph" false
    (Circuit_io.Aiger.graph_to_string a = Circuit_io.Aiger.graph_to_string c)

let test_gen_profile_conformance () =
  List.iter
    (fun profile ->
      for i = 0 to 19 do
        let g = Gen.random ~profile (seed_base + i) in
        Aig.Check.check_exn g;
        Alcotest.(check int) "npis" profile.Gen.npis (Graph.num_pis g);
        Alcotest.(check int) "npos" profile.Gen.npos (Graph.num_pos g);
        if Graph.num_ands g > profile.Gen.nands then
          Alcotest.failf "seed %d: %d ANDs exceeds target %d" (seed_base + i)
            (Graph.num_ands g) profile.Gen.nands
      done)
    [
      Gen.default;
      { Gen.npis = 3; npos = 1; nands = 10; reconv = 0.0; compl_p = 0.0 };
      { Gen.npis = 30; npos = 8; nands = 250; reconv = 0.9; compl_p = 1.0 };
    ]

let test_prop_shrinking () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "alsrac-prop-test" in
  (* Property failing whenever the graph has more than 5 gates: the shrinker
     must descend close to that boundary and the dump must round-trip. *)
  match
    Prop.check ~dump_dir:dir ~name:"self/shrink" ~seed:seed_base ~count:10 (fun g ->
        if Graph.num_ands g > 5 then Error "too many gates" else Ok ())
  with
  | Prop.Passed _ -> Alcotest.fail "property unexpectedly passed"
  | Prop.Failed f ->
      Alcotest.(check string) "message kept" "too many gates" f.Prop.message;
      if Graph.num_ands f.Prop.shrunk >= Graph.num_ands f.Prop.original then
        Alcotest.failf "no shrink: %d -> %d ANDs"
          (Graph.num_ands f.Prop.original)
          (Graph.num_ands f.Prop.shrunk);
      Alcotest.(check bool) "shrunk still fails" true (Graph.num_ands f.Prop.shrunk > 5);
      if Graph.num_ands f.Prop.shrunk > 6 then
        Alcotest.failf "shrinker stopped early at %d ANDs (minimum is 6)"
          (Graph.num_ands f.Prop.shrunk);
      (match f.Prop.dump with
      | None -> Alcotest.fail "no dump written"
      | Some path ->
          let g = Circuit_io.Aiger.read path in
          Alcotest.(check int) "dump round-trips" (Graph.num_ands f.Prop.shrunk)
            (Graph.num_ands g);
          Sys.remove path)

let test_prop_passes () =
  match
    Prop.check ~name:"self/pass" ~seed:seed_base ~count:25 (fun g ->
        Aig.Check.check g)
  with
  | Prop.Passed n -> Alcotest.(check int) "all cases ran" 25 n
  | Prop.Failed f -> Alcotest.fail (Prop.failure_to_string ~name:"self/pass" f)

let test_prop_exception_is_failure () =
  match
    Prop.check ~name:"self/raise" ~seed:seed_base ~count:3 (fun _ ->
        failwith "boom")
  with
  | Prop.Passed _ -> Alcotest.fail "exception not treated as failure"
  | Prop.Failed f ->
      Alcotest.(check bool) "message mentions the exception" true
        (String.length f.Prop.message > 0)

(* ------------------------------------------------------------------ *)
(* Flow integration: --certify-exact                                   *)
(* ------------------------------------------------------------------ *)

let test_flow_certify () =
  let g =
    Gen.random
      ~profile:{ Gen.npis = 8; npos = 4; nands = 120; reconv = 0.6; compl_p = 0.5 }
      (seed_base + 42)
  in
  let base =
    {
      (Core.Config.default ~metric:Errest.Metrics.Er ~threshold:0.05) with
      Core.Config.max_iters = 6;
      eval_rounds = 1024;
      seed = seed_base;
    }
  in
  let plain, report_plain = Core.Flow.run ~config:base g in
  (match report_plain.Core.Flow.certify with
  | None -> ()
  | Some _ -> Alcotest.fail "certify populated without the flag");
  let certified, report =
    Core.Flow.run ~config:{ base with Core.Config.certify_exact = true } g
  in
  Alcotest.(check string) "certification is observational"
    (Circuit_io.Aiger.graph_to_string plain)
    (Circuit_io.Aiger.graph_to_string certified);
  match report.Core.Flow.certify with
  | None -> Alcotest.fail "certify missing from report"
  | Some c ->
      if c.Core.Flow.exact_checks < 1 then Alcotest.fail "no exact checks ran";
      Alcotest.(check int) "no refuted exact transforms" 0 c.Core.Flow.exact_refuted;
      Alcotest.(check int) "no LAC recheck failures" 0
        c.Core.Flow.lac_recheck_failures;
      if report.Core.Flow.applied > 0 && c.Core.Flow.lac_rechecks < 1 then
        Alcotest.fail "accepted LACs but no rechecks recorded"

let () =
  Alcotest.run "verify"
    [
      ( "cec",
        [
          Alcotest.test_case "identical circuits" `Quick test_cec_identical;
          Alcotest.test_case "basic inequivalence" `Quick test_cec_inequivalent_basic;
          Alcotest.test_case "interface mismatch" `Quick test_cec_interface_mismatch;
          Alcotest.test_case "wide transform proof" `Quick test_cec_wide_transform;
          Alcotest.test_case "deterministic verdict" `Quick test_cec_deterministic;
        ] );
      ( "transforms",
        [
          Alcotest.test_case "random circuits" `Quick test_transform_equivalence;
          Alcotest.test_case "reconvergent circuits" `Quick
            test_transform_equivalence_reconvergent;
          Alcotest.test_case "benchmark suite" `Quick test_transform_suite;
        ] );
      ( "mapping",
        [
          Alcotest.test_case "random graphs" `Quick test_mapping_random;
          Alcotest.test_case "benchmark suite" `Quick test_mapping_suite;
        ] );
      ( "errest-oracle",
        [
          Alcotest.test_case "exhaustive metrics" `Quick test_metrics_oracle;
          Alcotest.test_case "certified bound containment" `Quick
            test_certify_contains_truth;
        ] );
      ( "mutation",
        [ Alcotest.test_case "single-gate faults flagged" `Quick test_mutation_detection ] );
      ( "harness",
        [
          Alcotest.test_case "generator determinism" `Quick test_gen_deterministic;
          Alcotest.test_case "profile conformance" `Quick test_gen_profile_conformance;
          Alcotest.test_case "shrinking and dumping" `Quick test_prop_shrinking;
          Alcotest.test_case "passing property" `Quick test_prop_passes;
          Alcotest.test_case "exception handling" `Quick test_prop_exception_is_failure;
        ] );
      ( "flow",
        [ Alcotest.test_case "certify-exact report" `Quick test_flow_certify ] );
    ]
