module Graph = Aig.Graph
module Bitvec = Logic.Bitvec

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_exhaustive_patterns () =
  let pats = Sim.Patterns.exhaustive ~npis:3 in
  check_int "three signatures" 3 (Array.length pats);
  check_int "eight rounds" 8 (Bitvec.length pats.(0));
  for m = 0 to 7 do
    for i = 0 to 2 do
      check "bit i of round m = bit i of m" ((m lsr i) land 1 = 1) (Bitvec.get pats.(i) m)
    done
  done

let test_exhaustive_limit () =
  Alcotest.check_raises "too many PIs"
    (Invalid_argument "Patterns.exhaustive: too many PIs") (fun () ->
      ignore (Sim.Patterns.exhaustive ~npis:25))

let test_random_patterns_shape () =
  let rng = Logic.Rng.create 1 in
  let pats = Sim.Patterns.random rng ~npis:5 ~len:100 in
  check_int "five signatures" 5 (Array.length pats);
  Array.iter (fun p -> check_int "length" 100 (Bitvec.length p)) pats

let test_weighted_patterns () =
  let rng = Logic.Rng.create 2 in
  let pats = Sim.Patterns.weighted rng ~probs:[| 0.0; 1.0; 0.5 |] ~len:500 in
  check_int "p=0 gives zeros" 0 (Bitvec.popcount pats.(0));
  check_int "p=1 gives ones" 500 (Bitvec.popcount pats.(1));
  let ones = Bitvec.popcount pats.(2) in
  check "p=0.5 is balanced-ish" true (ones > 150 && ones < 350)

let prop_engine_matches_naive =
  QCheck.Test.make ~name:"engine matches naive evaluation" ~count:50
    QCheck.(make Gen.(int_range 0 100000))
    (fun seed ->
      let rng = Logic.Rng.create seed in
      let g = Util.random_graph rng ~npis:6 ~nands:50 in
      let pats = Sim.Patterns.exhaustive ~npis:6 in
      let pos = Sim.Engine.simulate_pos g pats in
      let ok = ref true in
      for m = 0 to 63 do
        let inputs = Util.bools_of_int m 6 in
        let expected = Util.eval_naive g inputs in
        Array.iteri
          (fun o e -> if Bitvec.get pos.(o) m <> e then ok := false)
          expected
      done;
      !ok)

let prop_resimulate_tfo =
  QCheck.Test.make ~name:"TFO resimulation equals full resimulation" ~count:50
    QCheck.(make Gen.(int_range 0 100000))
    (fun seed ->
      let rng = Logic.Rng.create seed in
      let g = Util.random_graph rng ~npis:5 ~nands:40 in
      if Graph.num_ands g = 0 then true
      else begin
        let pats = Sim.Patterns.exhaustive ~npis:5 in
        let base = Sim.Engine.simulate g pats in
        (* Pick an arbitrary AND node and a random replacement signature. *)
        let ands = ref [] in
        Graph.iter_ands g (fun id -> ands := id :: !ands);
        let arr = Array.of_list !ands in
        let node = arr.(Logic.Rng.int rng (Array.length arr)) in
        let value = Bitvec.random rng (Bitvec.length base.(0)) in
        let tfo = Aig.Cone.tfo_mask g node in
        let fast = Reference.resimulate_tfo g ~base ~tfo ~node ~value in
        (* Reference: recompute every node with the override applied. *)
        let n = Graph.num_nodes g in
        let sigs = Array.init n (fun i -> Bitvec.copy base.(i)) in
        sigs.(node) <- value;
        Graph.iter_ands g (fun id ->
            if id <> node then begin
              let f0 = Graph.fanin0 g id and f1 = Graph.fanin1 g id in
              let v0 = sigs.(Graph.node_of f0) and v1 = sigs.(Graph.node_of f1) in
              let v0 = if Graph.is_compl f0 then Bitvec.lognot v0 else v0 in
              let v1 = if Graph.is_compl f1 then Bitvec.lognot v1 else v1 in
              sigs.(id) <- Bitvec.logand v0 v1
            end);
        let slow =
          Array.init (Graph.num_pos g) (fun i ->
              let l = Graph.po_lit g i in
              let v = sigs.(Graph.node_of l) in
              if Graph.is_compl l then Bitvec.lognot v else v)
        in
        Array.for_all2 Bitvec.equal fast slow
      end)

let test_simulate_checks_arity () =
  let g = Graph.create () in
  ignore (Graph.add_pi g);
  Alcotest.check_raises "PI count"
    (Invalid_argument "Engine.simulate: one signature per PI required") (fun () ->
      ignore (Sim.Engine.simulate g [||]))

(* ---------- Fraig ---------- *)

let test_fraig_merges_functional_duplicates () =
  (* Two structurally different builds of xor: strash cannot merge them,
     fraig must. *)
  let g = Graph.create () in
  let a = Graph.add_pi g and b = Graph.add_pi g in
  let x1 = Aig.Builder.xor g a b in
  (* xor via or/and: (a|b) & !(a&b). *)
  let x2 = Graph.and_ g (Aig.Builder.or_ g a b) (Graph.lit_not (Graph.and_ g a b)) in
  ignore (Graph.add_po g x1);
  ignore (Graph.add_po g x2);
  let before = Graph.num_ands g in
  let merged = Sim.Fraig.run g in
  Alcotest.(check bool) "smaller" true (Graph.num_ands merged < before);
  Alcotest.(check bool) "equivalent" true (Util.equivalent g merged)

let test_fraig_merges_complement_pairs () =
  let g = Graph.create () in
  let a = Graph.add_pi g and b = Graph.add_pi g in
  let nand_ = Graph.lit_not (Graph.and_ g a b) in
  (* !a | !b built independently. *)
  let or_nots = Aig.Builder.or_ g (Graph.lit_not a) (Graph.lit_not b) in
  ignore (Graph.add_po g nand_);
  ignore (Graph.add_po g or_nots);
  let merged = Sim.Fraig.run g in
  Alcotest.(check bool) "equivalent" true (Util.equivalent g merged);
  Alcotest.(check int) "single AND" 1 (Graph.num_ands merged)

let prop_fraig_preserves_function =
  QCheck.Test.make ~name:"fraig preserves function" ~count:40
    QCheck.(make Gen.(int_range 0 100000))
    (fun seed ->
      let rng = Logic.Rng.create seed in
      let g = Util.random_graph rng ~npis:6 ~nands:50 in
      let merged = Sim.Fraig.run g in
      Aig.Check.check_exn merged;
      Graph.num_ands merged <= Graph.num_ands (Graph.compact g) + 0
      && Util.equivalent g merged)

let test_fraig_respects_support_bound () =
  (* Nodes with wide support are left alone even when equivalent. *)
  let g = Graph.create () in
  let lits = List.init 20 (fun _ -> Graph.add_pi g) in
  let big1 = Aig.Builder.and_list g lits in
  let big2 = Aig.Builder.and_list g (List.rev lits) in
  ignore (Graph.add_po g big1);
  ignore (Graph.add_po g big2);
  let merged = Sim.Fraig.run ~max_support:8 g in
  Aig.Check.check_exn merged;
  (* Candidates share signatures but exceed the support bound: no merge. *)
  Alcotest.(check int) "unchanged size" (Graph.num_ands (Graph.compact g))
    (Graph.num_ands merged)

let () =
  Alcotest.run "sim"
    [
      ( "patterns",
        [
          Alcotest.test_case "exhaustive" `Quick test_exhaustive_patterns;
          Alcotest.test_case "exhaustive limit" `Quick test_exhaustive_limit;
          Alcotest.test_case "random shape" `Quick test_random_patterns_shape;
          Alcotest.test_case "weighted" `Quick test_weighted_patterns;
        ] );
      ( "engine",
        [ Alcotest.test_case "arity check" `Quick test_simulate_checks_arity ]
        @ Util.qcheck_cases [ prop_engine_matches_naive; prop_resimulate_tfo ] );
      ( "fraig",
        [
          Alcotest.test_case "merges duplicates" `Quick test_fraig_merges_functional_duplicates;
          Alcotest.test_case "merges complements" `Quick test_fraig_merges_complement_pairs;
          Alcotest.test_case "support bound" `Quick test_fraig_respects_support_bound;
        ]
        @ Util.qcheck_cases [ prop_fraig_preserves_function ] );
    ]
