module Graph = Aig.Graph
module Truth = Logic.Truth

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let dump g = Circuit_io.Aiger.graph_to_string g

let suite_graph name =
  match Circuits.Suite.find name with
  | Some e -> Graph.compact (e.Circuits.Suite.build ())
  | None -> Alcotest.failf "unknown benchmark %s" name

(* Words [f] allocates on the minor heap of the calling domain.
   [Gc.minor_words] is unboxed, so reading it allocates nothing itself. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  int_of_float (Gc.minor_words () -. w0)

(* ---------- Graph construction ---------- *)

let test_constant_folding () =
  let g = Graph.create () in
  let a = Graph.add_pi g in
  check_int "0 & a" Graph.const0 (Graph.and_ g Graph.const0 a);
  check_int "1 & a" a (Graph.and_ g Graph.const1 a);
  check_int "a & a" a (Graph.and_ g a a);
  check_int "a & !a" Graph.const0 (Graph.and_ g a (Graph.lit_not a));
  check_int "no node created" 0 (Graph.num_ands g)

let test_strash () =
  let g = Graph.create () in
  let a = Graph.add_pi g and b = Graph.add_pi g in
  let x = Graph.and_ g a b in
  let y = Graph.and_ g b a in
  check_int "commutative dedup" x y;
  check_int "one AND" 1 (Graph.num_ands g);
  let z = Graph.and_ g (Graph.lit_not a) b in
  check "different node" true (x <> z);
  check_int "two ANDs" 2 (Graph.num_ands g);
  (* Benchmark circuits: replaying each compacted circuit's PI/AND/PO stream
     into a fresh graph reproduces its AIGER bytes, and re-issuing every AND
     hits the strash: the existing literal, no new node, no allocation. *)
  List.iter
    (fun name ->
      let g = suite_graph name in
      let n = Graph.num_nodes g in
      let f0 = Array.make n 0 and f1 = Array.make n 0 in
      let h = Graph.create ~name:(Graph.name g) () in
      for id = 1 to n - 1 do
        if Graph.is_pi g id then
          ignore (Graph.add_pi ~name:(Graph.pi_name g (Graph.pi_index g id)) h)
        else begin
          f0.(id) <- Graph.fanin0 g id;
          f1.(id) <- Graph.fanin1 g id;
          check_int (name ^ ": replayed id") (Graph.make_lit id false)
            (Graph.and_ h f0.(id) f1.(id))
        end
      done;
      Graph.iter_pos g (fun i l -> ignore (Graph.add_po ~name:(Graph.po_name g i) h l));
      Alcotest.(check string) (name ^ ": replayed AIGER") (dump g) (dump h);
      let misses = ref 0 in
      let words =
        minor_words (fun () ->
            for id = Graph.num_pis h + 1 to n - 1 do
              if Graph.and_ h f0.(id) f1.(id) <> Graph.make_lit id false then incr misses
            done)
      in
      check_int (name ^ ": every AND re-issued hits") 0 !misses;
      check_int (name ^ ": no node added") n (Graph.num_nodes h);
      check_int (name ^ ": words allocated by the hits") 0 words)
    [ "c880"; "c1908"; "c7552"; "mtp8" ]

let test_pi_po_bookkeeping () =
  let g = Graph.create ~name:"t" () in
  let a = Graph.add_pi ~name:"ina" g in
  let b = Graph.add_pi ~name:"inb" g in
  let i = Graph.add_po ~name:"out" g (Graph.and_ g a b) in
  Alcotest.(check string) "pi name" "ina" (Graph.pi_name g 0);
  Alcotest.(check string) "po name" "out" (Graph.po_name g i);
  check_int "pi_index" 1 (Graph.pi_index g (Graph.node_of b));
  check_int "num nodes" 4 (Graph.num_nodes g);
  Aig.Check.check_exn g

let test_build_expr () =
  let g = Graph.create () in
  let a = Graph.add_pi g and b = Graph.add_pi g and c = Graph.add_pi g in
  let expr =
    Logic.Factor.(Or [ And [ Lit (0, true); Lit (1, false) ]; Lit (2, true) ])
  in
  let l = Graph.build_expr g expr [| a; b; c |] in
  ignore (Graph.add_po g l);
  (* Check against direct evaluation on all 8 inputs. *)
  for m = 0 to 7 do
    let inputs = Util.bools_of_int m 3 in
    let expected = (inputs.(0) && not inputs.(1)) || inputs.(2) in
    let actual = (Util.eval_naive g inputs).(0) in
    check "expr semantics" expected actual
  done

(* ---------- Rebuild ---------- *)

let test_rebuild_preserves_function () =
  let rng = Logic.Rng.create 5 in
  for _ = 1 to 20 do
    let g = Util.random_graph rng ~npis:6 ~nands:40 in
    let r = Graph.rebuild g in
    check "equivalent" true (Util.equivalent g r);
    check "not larger" true (Graph.num_ands r <= Graph.num_ands g);
    Aig.Check.check_exn r
  done

let test_rebuild_substitution () =
  let g = Graph.create () in
  let a = Graph.add_pi g and b = Graph.add_pi g in
  let x = Graph.and_ g a b in
  ignore (Graph.add_po g x);
  (* Substitute the AND by just [a]. *)
  let r =
    Graph.rebuild
      ~replace:(fun id ->
        if id = Graph.node_of x then Some (Graph.Replace_lit a) else None)
      g
  in
  check_int "no ANDs left" 0 (Graph.num_ands r);
  for m = 0 to 3 do
    let inputs = Util.bools_of_int m 2 in
    check "po = a" inputs.(0) ((Util.eval_naive r inputs).(0))
  done

let test_rebuild_cycle_detection () =
  let g = Graph.create () in
  let a = Graph.add_pi g and b = Graph.add_pi g in
  let x = Graph.and_ g a b in
  let y = Graph.and_ g x (Graph.lit_not a) in
  ignore (Graph.add_po g y);
  (* x := y creates a cycle x -> y -> x. *)
  Alcotest.check_raises "cycle"
    (Failure "Graph.rebuild: substitution creates a combinational cycle") (fun () ->
      ignore
        (Graph.rebuild
           ~replace:(fun id ->
             if id = Graph.node_of x then Some (Graph.Replace_lit y) else None)
           g))

(* ---------- Topo / Cone ---------- *)

let diamond () =
  (* y = (a & b) & (a & c): node m shared. *)
  let g = Graph.create () in
  let a = Graph.add_pi g and b = Graph.add_pi g and c = Graph.add_pi g in
  let ab = Graph.and_ g a b in
  let ac = Graph.and_ g a c in
  let y = Graph.and_ g ab ac in
  ignore (Graph.add_po g y);
  (g, a, b, c, ab, ac, y)

let test_levels_depth () =
  let g, _, _, _, ab, _, y = diamond () in
  let lev = Aig.Topo.levels g in
  check_int "ab level" 1 lev.(Graph.node_of ab);
  check_int "y level" 2 lev.(Graph.node_of y);
  check_int "depth" 2 (Aig.Topo.depth g)

let test_fanouts () =
  let g, a, _, _, _, _, _ = diamond () in
  let fo = Aig.Topo.fanout_counts g in
  check_int "a has two fanouts" 2 fo.(Graph.node_of a)

let test_tfi_tfo () =
  let g, a, _, _, ab, ac, y = diamond () in
  let tfi = Aig.Cone.tfi_mask g (Graph.node_of y) in
  check "y in own tfi" true tfi.(Graph.node_of y);
  check "a in tfi" true tfi.(Graph.node_of a);
  let tfo = Aig.Cone.tfo_mask g (Graph.node_of ab) in
  check "y in tfo of ab" true tfo.(Graph.node_of y);
  check "ac not in tfo of ab" false tfo.(Graph.node_of ac)

let test_tfi_nodes_sorted () =
  let g, _, _, _, _, _, y = diamond () in
  let nodes = Aig.Cone.tfi_nodes g (Graph.node_of y) in
  check_int "five tfi nodes" 5 (List.length nodes);
  let lev = Aig.Topo.levels g in
  let rec ascending = function
    | a :: b :: rest -> lev.(a) <= lev.(b) && ascending (b :: rest)
    | _ -> true
  in
  check "sorted by level" true (ascending nodes)

let test_mffc () =
  let g, _, _, _, ab, ac, y = diamond () in
  let fanouts = Aig.Topo.fanout_counts g in
  let mffc = Aig.Cone.mffc g ~fanouts (Graph.node_of y) in
  (* All three ANDs die if y is removed. *)
  check_int "mffc covers the whole cone" 3 (List.length mffc);
  let mffc_ab = Aig.Cone.mffc g ~fanouts (Graph.node_of ab) in
  check_int "shared node: only itself" 1 (List.length mffc_ab);
  ignore ac

let test_cone_inputs () =
  let g, a, b, _, ab, _, _ = diamond () in
  let inputs = Aig.Cone.cone_inputs g [ Graph.node_of ab ] in
  check "inputs are a and b" true
    (List.sort compare inputs = List.sort compare [ Graph.node_of a; Graph.node_of b ]);
  ignore g

(* ---------- Cuts ---------- *)

let test_cut_enumeration () =
  let g, _, _, _, _, _, y = diamond () in
  let cuts = Aig.Cut.enumerate g ~k:4 () in
  let ycuts = cuts.(Graph.node_of y) in
  check "has trivial cut" true
    (List.exists (fun c -> c.Aig.Cut.leaves = [| Graph.node_of y |]) ycuts);
  (* The PI cut {a,b,c} must appear. *)
  check "has PI cut" true
    (List.exists (fun c -> Array.length c.Aig.Cut.leaves = 3) ycuts)

let test_cut_truth () =
  let g, a, b, c, _, _, y = diamond () in
  let leaves = [| Graph.node_of a; Graph.node_of b; Graph.node_of c |] in
  let tt = Aig.Cut.truth g ~root:(Graph.node_of y) ~leaves in
  let expected = Truth.band (Truth.band (Truth.var 3 0) (Truth.var 3 1)) (Truth.var 3 2) in
  check "abc cut function" true (Truth.equal tt expected)

let prop_cut_truth_random =
  QCheck.Test.make ~name:"cut truths match naive evaluation" ~count:30
    QCheck.(make Gen.(int_range 0 10000))
    (fun seed ->
      let rng = Logic.Rng.create seed in
      let g = Util.random_graph rng ~npis:5 ~nands:30 in
      let cuts = Aig.Cut.enumerate g ~k:4 () in
      let ok = ref true in
      Graph.iter_ands g (fun id ->
          List.iter
            (fun cut ->
              let leaves = cut.Aig.Cut.leaves in
              if not (Array.exists (fun l -> l = id) leaves) then begin
                let tt = Aig.Cut.truth g ~root:id ~leaves in
                (* Validate on 16 random points via naive evaluation. *)
                for _ = 1 to 16 do
                  let inputs = Array.init 5 (fun _ -> Logic.Rng.bool rng) in
                  let node_val id' =
                    let g2 = g in
                    let rec eval id =
                      if Graph.is_const id then false
                      else if Graph.is_pi g2 id then inputs.(Graph.pi_index g2 id)
                      else
                        let l0 = Graph.fanin0 g2 id and l1 = Graph.fanin1 g2 id in
                        (eval (Graph.node_of l0) <> Graph.is_compl l0)
                        && (eval (Graph.node_of l1) <> Graph.is_compl l1)
                    in
                    eval id'
                  in
                  let leaf_vals = Array.map node_val leaves in
                  if Truth.eval tt leaf_vals <> node_val id then ok := false
                done
              end)
            cuts.(id));
      !ok)

(* ---------- Optimization passes ---------- *)

let transform_preserves name f =
  QCheck.Test.make ~name ~count:30
    QCheck.(make Gen.(int_range 0 100000))
    (fun seed ->
      let rng = Logic.Rng.create seed in
      let g = Util.random_graph rng ~npis:6 ~nands:60 in
      let r = f g in
      Aig.Check.check_exn r;
      Util.equivalent g r)

let prop_balance = transform_preserves "balance preserves function" Aig.Balance.run
let prop_rewrite = transform_preserves "rewrite preserves function" Aig.Rewrite.run
let prop_refactor = transform_preserves "refactor preserves function" (Aig.Refactor.run ?max_inputs:None)
let prop_compress2 = transform_preserves "compress2 preserves function" (fun g -> Aig.Resyn.compress2 g)

let prop_compress2_shrinks =
  QCheck.Test.make ~name:"compress2 never grows" ~count:30
    QCheck.(make Gen.(int_range 0 100000))
    (fun seed ->
      let rng = Logic.Rng.create seed in
      let g = Util.random_graph rng ~npis:6 ~nands:60 in
      Graph.num_ands (Aig.Resyn.compress2 g) <= Graph.num_ands (Graph.compact g))

let test_balance_reduces_chain_depth () =
  (* A long AND chain must balance to logarithmic depth. *)
  let g = Graph.create () in
  let lits = List.init 16 (fun _ -> Graph.add_pi g) in
  let chain = List.fold_left (fun acc l -> Graph.and_ g acc l) Graph.const1 lits in
  ignore (Graph.add_po g chain);
  check_int "chain depth" 15 (Aig.Topo.depth g);
  let b = Aig.Balance.run g in
  check_int "balanced depth" 4 (Aig.Topo.depth b);
  check "equivalent" true (Util.equivalent g b)

let test_refactor_simplifies_redundancy () =
  (* f = a b + a !b  ==  a: refactoring must collapse it. *)
  let g = Graph.create () in
  let a = Graph.add_pi g and b = Graph.add_pi g in
  let t1 = Graph.and_ g a b in
  let t2 = Graph.and_ g a (Graph.lit_not b) in
  let f = Graph.lit_not (Graph.and_ g (Graph.lit_not t1) (Graph.lit_not t2)) in
  ignore (Graph.add_po g f);
  let r = Aig.Refactor.run g in
  check_int "collapsed to wire" 0 (Graph.num_ands r);
  check "equivalent" true (Util.equivalent g r)

let test_builder_gates () =
  let g = Graph.create () in
  let a = Graph.add_pi g and b = Graph.add_pi g and c = Graph.add_pi g in
  ignore (Graph.add_po g (Aig.Builder.maj3 g a b c));
  ignore (Graph.add_po g (Aig.Builder.mux g ~sel:a ~t:b ~e:c));
  ignore (Graph.add_po g (Aig.Builder.xnor g a b));
  ignore (Graph.add_po g (Aig.Builder.nand g a b));
  ignore (Graph.add_po g (Aig.Builder.nor g a b));
  for m = 0 to 7 do
    let i = Util.bools_of_int m 3 in
    let out = Util.eval_naive g i in
    let expect_maj = (i.(0) && i.(1)) || (i.(0) && i.(2)) || (i.(1) && i.(2)) in
    check "maj3" expect_maj out.(0);
    check "mux" (if i.(0) then i.(1) else i.(2)) out.(1);
    check "xnor" (i.(0) = i.(1)) out.(2);
    check "nand" (not (i.(0) && i.(1))) out.(3);
    check "nor" (not (i.(0) || i.(1))) out.(4)
  done

let test_node_count_in_use () =
  let g = Graph.create () in
  let a = Graph.add_pi g and b = Graph.add_pi g in
  let used = Graph.and_ g a b in
  let _dead = Graph.and_ g a (Graph.lit_not b) in
  ignore (Graph.add_po g used);
  check_int "stored" 2 (Graph.num_ands g);
  check_int "in use" 1 (Aig.Topo.node_count_in_use g)

let test_set_po () =
  let g = Graph.create () in
  let a = Graph.add_pi g and b = Graph.add_pi g in
  let i = Graph.add_po g a in
  Graph.set_po g i b;
  check_int "updated" b (Graph.po_lit g i)

(* ---------- SoA core: clone, snapshot, views, rebuilder ---------- *)

(* Reference recomputation of every derived view through the public
   accessors only — shares nothing with the cache under test. *)
let naive_views g =
  let n = Graph.num_nodes g in
  let levels = Array.make n 0 in
  let refs = Array.make n 0 in
  let fan = Array.make n [] in
  let po_fan = Array.make n [] in
  Graph.iter_ands g (fun id ->
      let n0 = Graph.node_of (Graph.fanin0 g id)
      and n1 = Graph.node_of (Graph.fanin1 g id) in
      levels.(id) <- 1 + max levels.(n0) levels.(n1);
      refs.(n0) <- refs.(n0) + 1;
      refs.(n1) <- refs.(n1) + 1;
      fan.(n0) <- id :: fan.(n0);
      if n1 <> n0 then fan.(n1) <- id :: fan.(n1));
  let depth = ref 0 in
  Graph.iter_pos g (fun i l ->
      let d = Graph.node_of l in
      refs.(d) <- refs.(d) + 1;
      po_fan.(d) <- i :: po_fan.(d);
      if levels.(d) > !depth then depth := levels.(d));
  (levels, refs, Array.map List.rev fan, Array.map List.rev po_fan, !depth)

let check_views what g =
  let levels, refs, fan, po_fan, depth = naive_views g in
  Alcotest.(check (array int)) (what ^ ": levels") levels (Aig.Topo.levels g);
  Alcotest.(check (array int)) (what ^ ": refs") refs (Aig.Topo.fanout_counts g);
  check_int (what ^ ": depth") depth (Aig.Topo.depth g);
  let f = Aig.Fanout.build g in
  for v = 0 to Graph.num_nodes g - 1 do
    let acc = ref [] in
    Aig.Fanout.iter_fanouts f v (fun t -> acc := t :: !acc);
    Alcotest.(check (list int)) (what ^ ": fanouts") fan.(v) (List.rev !acc);
    let pacc = ref [] in
    Aig.Fanout.iter_pos f v (fun t -> pacc := t :: !pacc);
    Alcotest.(check (list int)) (what ^ ": po fanouts") po_fan.(v) (List.rev !pacc)
  done

let test_views_random_mutations () =
  for seed = 1 to 30 do
    let g = Verify.Gen.random seed in
    check_views "initial" g;
    let rng = Logic.Rng.create (1000 + seed) in
    (* Randomized structural mutation sequence through the public API —
       appended gates, new POs, PO rewires.  After every step the cached
       views must equal a from-scratch recomputation. *)
    for step = 1 to 12 do
      let rand_lit () =
        Graph.make_lit (Logic.Rng.int rng (Graph.num_nodes g)) (Logic.Rng.int rng 2 = 1)
      in
      (match Logic.Rng.int rng 3 with
      | 0 -> ignore (Graph.and_ g (rand_lit ()) (rand_lit ()))
      | 1 -> ignore (Graph.add_po g (rand_lit ()))
      | _ -> Graph.set_po g (Logic.Rng.int rng (Graph.num_pos g)) (rand_lit ()));
      check_views (Printf.sprintf "seed %d step %d" seed step) g
    done
  done

let test_clone_roundtrip () =
  for seed = 1 to 50 do
    let g = Verify.Gen.random seed in
    let c = Graph.clone g in
    Alcotest.(check string) "clone dump" (dump g) (dump c);
    (* Divergence after the clone stays isolated: mutating the copy leaves
       the original byte-identical, and both sides' views stay correct. *)
    let d0 = dump g in
    ignore (Graph.and_ c (Graph.pi_lit c 0) (Graph.lit_not (Graph.pi_lit c 1)));
    ignore (Graph.add_po c Graph.const1);
    Alcotest.(check string) "original untouched" d0 (dump g);
    check_views "mutated clone" c;
    check_views "original after clone mutation" g;
    Aig.Check.check_exn c;
    Aig.Check.check_exn g
  done

let test_trim () =
  for seed = 1 to 50 do
    let g = Verify.Gen.random seed in
    let views_before = Graph.views g in
    let u = Graph.clone g in
    Graph.trim g;
    Alcotest.(check string) "trimmed dump" (dump u) (dump g);
    Aig.Check.check_exn g;
    check "slack dropped" true
      (Obj.reachable_words (Obj.repr g) < Obj.reachable_words (Obj.repr u));
    check "views recomputed" true (Graph.views g != views_before);
    check_views "trimmed" g;
    let n = Graph.num_nodes g in
    Graph.iter_ands g (fun id ->
        check_int "existing fanin pair" (Graph.make_lit id false)
          (Graph.and_ g (Graph.fanin0 g id) (Graph.fanin1 g id)));
    check_int "no node added" n (Graph.num_nodes g);
    (* Past every trimmed capacity: more PIs, a chain of new gates, a PO. *)
    List.iter
      (fun h ->
        let a = Graph.add_pi h in
        let l = ref a in
        for i = 0 to (2 * n) + 2 do
          let pi = Graph.pi_lit h (i mod Graph.num_pis h) in
          l := Graph.and_ h !l (Graph.lit_not_cond pi (i land 1 = 0))
        done;
        ignore (Graph.add_po h !l))
      [ g; u ];
    Alcotest.(check string) "grown dump" (dump u) (dump g);
    Aig.Check.check_exn g;
    check_views "grown" g
  done

let test_snapshot_restore () =
  for seed = 1 to 50 do
    let g = Verify.Gen.random seed in
    let d0 = dump g in
    let s = Graph.snapshot g in
    let rev0 = Graph.revision g in
    let a = Graph.add_pi g in
    ignore (Graph.add_po g (Graph.and_ g a (Graph.pi_lit g 0)));
    Graph.set_po g 0 Graph.const0;
    check "mutations took" true (dump g <> d0);
    Graph.restore g s;
    Alcotest.(check string) "restored dump" d0 (dump g);
    check "revision stays monotonic" true (Graph.revision g > rev0);
    check_views "restored" g;
    Aig.Check.check_exn g;
    (* The restored strash is live: re-issuing every existing pair must hit
       the table, never create a node. *)
    let n = Graph.num_nodes g in
    Graph.iter_ands g (fun id ->
        ignore (Graph.and_ g (Graph.fanin0 g id) (Graph.fanin1 g id)));
    check_int "strash intact after restore" n (Graph.num_nodes g)
  done

let test_rebuilder_matches_rebuild () =
  (* One shared rebuilder across 220 random circuits: the scratch-reuse
     path must produce byte-identical results to the allocating one, with
     and without substitutions, while recycling destination graphs. *)
  let rb = Graph.rebuilder () in
  for seed = 1 to 220 do
    let g = Verify.Gen.random seed in
    let plain = Graph.rebuild g in
    let reused = Graph.rebuild_with rb g in
    Alcotest.(check string) "compact equal" (dump plain) (dump reused);
    let target = ref (-1) in
    Graph.iter_ands g (fun id -> if !target < 0 then target := id);
    if !target >= 0 then begin
      let replace id =
        if id = !target then Some (Graph.Replace_lit Graph.const0) else None
      in
      let p2 = Graph.rebuild ~replace g in
      let r2 = Graph.rebuild_with rb ~replace g in
      Alcotest.(check string) "substitution equal" (dump p2) (dump r2);
      Graph.recycle rb r2
    end;
    Graph.recycle rb reused
  done

let test_steady_state_allocation () =
  (* A warm [views] call is a pointer load.  A steady-state rebuild, with
     the mapping grown and one graph cycling through the arena, returns the
     allocating rebuild's bytes and allocates a PI or PO name option per
     interface signal plus a constant: nothing per AND. *)
  List.iter
    (fun name ->
      let g = suite_graph name in
      ignore (Graph.views g);
      check_int (name ^ ": warm views words") 0
        (minor_words (fun () -> ignore (Sys.opaque_identity (Graph.views g))));
      let rb = Graph.rebuilder () in
      for _ = 1 to 2 do
        let r = Graph.rebuild_with rb g in
        Alcotest.(check string) (name ^ ": arena rebuild") (dump (Graph.rebuild g)) (dump r);
        Graph.recycle rb r
      done;
      let words = minor_words (fun () -> Graph.recycle rb (Graph.rebuild_with rb g)) in
      let bound = (2 * (Graph.num_pis g + Graph.num_pos g)) + 16 in
      if words > bound then
        Alcotest.failf "%s: rebuild_with + recycle allocated %d words (bound %d)" name
          words bound)
    [ "c880"; "c1908"; "c7552"; "mtp8" ]

let () =
  Alcotest.run "aig"
    [
      ( "graph",
        [
          Alcotest.test_case "builder gates" `Quick test_builder_gates;
          Alcotest.test_case "node count in use" `Quick test_node_count_in_use;
          Alcotest.test_case "set_po" `Quick test_set_po;
          Alcotest.test_case "constant folding" `Quick test_constant_folding;
          Alcotest.test_case "strash" `Quick test_strash;
          Alcotest.test_case "pi/po bookkeeping" `Quick test_pi_po_bookkeeping;
          Alcotest.test_case "build_expr" `Quick test_build_expr;
        ] );
      ( "rebuild",
        [
          Alcotest.test_case "preserves function" `Quick test_rebuild_preserves_function;
          Alcotest.test_case "substitution" `Quick test_rebuild_substitution;
          Alcotest.test_case "cycle detection" `Quick test_rebuild_cycle_detection;
        ] );
      ( "topo-cone",
        [
          Alcotest.test_case "levels/depth" `Quick test_levels_depth;
          Alcotest.test_case "fanouts" `Quick test_fanouts;
          Alcotest.test_case "tfi/tfo" `Quick test_tfi_tfo;
          Alcotest.test_case "tfi sorted" `Quick test_tfi_nodes_sorted;
          Alcotest.test_case "mffc" `Quick test_mffc;
          Alcotest.test_case "cone inputs" `Quick test_cone_inputs;
        ] );
      ( "soa-core",
        [
          Alcotest.test_case "views after random mutations" `Quick
            test_views_random_mutations;
          Alcotest.test_case "clone round-trip" `Quick test_clone_roundtrip;
          Alcotest.test_case "trim" `Quick test_trim;
          Alcotest.test_case "snapshot/restore" `Quick test_snapshot_restore;
          Alcotest.test_case "rebuilder matches rebuild" `Quick
            test_rebuilder_matches_rebuild;
          Alcotest.test_case "steady-state allocation" `Quick
            test_steady_state_allocation;
        ] );
      ( "cuts",
        [
          Alcotest.test_case "enumeration" `Quick test_cut_enumeration;
          Alcotest.test_case "cut truth" `Quick test_cut_truth;
        ]
        @ Util.qcheck_cases [ prop_cut_truth_random ] );
      ( "passes",
        [
          Alcotest.test_case "balance chain" `Quick test_balance_reduces_chain_depth;
          Alcotest.test_case "refactor redundancy" `Quick test_refactor_simplifies_redundancy;
        ]
        @ Util.qcheck_cases
            [
              prop_balance; prop_rewrite; prop_refactor; prop_compress2;
              prop_compress2_shrinks;
            ] );
    ]
