module Graph = Aig.Graph
module Bitvec = Logic.Bitvec

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- Divisor selection (Algorithm 1) ---------- *)

let test_divisor_sets_shape () =
  (* y = (a&b) & (a&c): fanins of y are {ab, ac}; removal sets are the two
     singletons; replacement sets pair each remaining fanin with TFI nodes. *)
  let g = Graph.create () in
  let a = Graph.add_pi g and b = Graph.add_pi g and c = Graph.add_pi g in
  let ab = Graph.and_ g a b in
  let ac = Graph.and_ g a c in
  let y = Graph.and_ g ab ac in
  ignore (Graph.add_po g y);
  let sets = Reference.select g ~max_tfi:100 (Graph.node_of y) in
  check "nonempty" true (sets <> []);
  (* First set is a single fanin (remove-one). *)
  check_int "first set size" 1 (Array.length (List.hd sets));
  List.iter
    (fun s ->
      check "size 1 or 2" true (Array.length s >= 1 && Array.length s <= 2);
      check "target not a divisor" false (Array.mem (Graph.node_of y) s))
    sets;
  (* No duplicates. *)
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      check "no duplicate set" false (Hashtbl.mem tbl s);
      Hashtbl.replace tbl s ())
    sets

let test_divisor_iter_stops () =
  let g = Graph.create () in
  let a = Graph.add_pi g and b = Graph.add_pi g in
  let x = Graph.and_ g a b in
  ignore (Graph.add_po g x);
  let count = ref 0 in
  Reference.iter_sets g ~max_tfi:100 (Graph.node_of x) (fun _ ->
      incr count;
      `Stop);
  check_int "stopped after one" 1 !count

(* Random circuits with varied width, depth and reconvergence. *)
let gen_circuit seed =
  Verify.Gen.random
    ~profile:
      { Verify.Gen.npis = 3 + (seed mod 9);
        npos = 1 + (seed mod 4);
        nands = 10 + (seed * 7 mod 60);
        reconv = float_of_int (seed mod 5) /. 4.;
        compl_p = 0.5 }
    seed

let mffc_table mffc =
  let in_mffc = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace in_mffc n ()) mffc;
  in_mffc

(* The eager order the ranked walk must reproduce: every set of [select]
   with its [true_savings], stable-sorted by savings, best first. *)
let eager_ranking g ~max_tfi ~mffc v =
  let in_mffc = mffc_table mffc and mffc_size = List.length mffc in
  Reference.select g ~max_tfi v
  |> List.map (fun set -> (Reference.true_savings g ~in_mffc ~mffc_size set, set))
  |> List.stable_sort (fun (s1, _) (s2, _) -> compare s2 s1)

let test_ranked_walk_oracle () =
  let targets = ref 0 in
  for seed = 0 to 219 do
    let g = gen_circuit seed in
    let fanouts = Aig.Topo.fanout_counts g in
    Graph.iter_ands g (fun v ->
        incr targets;
        let mffc = Aig.Cone.mffc g ~fanouts v in
        List.iter
          (fun max_tfi ->
            let expected = eager_ranking g ~max_tfi ~mffc v in
            let got = ref [] in
            let blocks = Core.Divisor.lac_blocks g ~max_tfi ~mffc v in
            Core.Divisor.iter_ranked blocks (fun ~key:savings set ->
                got := (savings, set) :: !got;
                `Continue);
            if List.rev !got <> expected then
              Alcotest.failf "seed %d node %d max_tfi %d: ranked walk differs" seed v
                max_tfi;
            (* Stopping after [n] sets must hand out exactly the first [n]. *)
            let n = List.length expected / 2 + 1 in
            let prefix = ref [] in
            Core.Divisor.iter_ranked blocks (fun ~key:savings set ->
                prefix := (savings, set) :: !prefix;
                if List.length !prefix >= n then `Stop else `Continue);
            if List.rev !prefix <> List.filteri (fun i _ -> i < n) expected then
              Alcotest.failf "seed %d node %d max_tfi %d: stopped walk is not a prefix"
                seed v max_tfi)
          [ 1; 3; 5000 ])
  done;
  check "enough targets" true (!targets > 2000)

(* ---------- The paper's worked example (Examples 1, 3, 4) ---------- *)

(* Signatures observed at divisors {u, z} and node v over the 5 selected PI
   patterns of Example 1: uz = {00, 10, 10, 01, 01}, v = {1, 0, 0, 0, 0}. *)
let example_sigs () =
  let u = Bitvec.of_string "01100" in
  let z = Bitvec.of_string "00011" in
  let v = Bitvec.of_string "10000" in
  (* Node layout: 0 unused, 1 = u, 2 = z, 3 = v. *)
  [| Bitvec.create 5; u; z; v |]

(* The care table of a scan the test expects to be feasible. *)
let feasible_scan ?mask ~sigs ~node ~divisors ~rounds () =
  match Core.Care.scan ?mask ~sigs ~node ~divisors ~rounds () with
  | Some care -> care
  | None -> Alcotest.fail "care scan found a conflict"

let test_example3_feasibility () =
  let sigs = example_sigs () in
  let care = feasible_scan ~sigs ~node:3 ~divisors:[| 1; 2 |] ~rounds:5 () in
  check_int "three care tuples (Table II)" 3 care.Core.Care.care_count;
  Alcotest.(check (list int)) "tuples 00,01,10" [ 0; 1; 2 ] (Core.Care.care_tuples care)

let test_example4_resub_function () =
  let sigs = example_sigs () in
  let care = feasible_scan ~sigs ~node:3 ~divisors:[| 1; 2 |] ~rounds:5 () in
  let cover = Core.Resub.derive care in
  (* Expected v_hat = !u & !z (Table II with the don't-care at 11 set to 0). *)
  let tt = Logic.Cover.to_truth cover in
  let expected =
    Logic.Truth.band
      (Logic.Truth.bnot (Logic.Truth.var 2 0))
      (Logic.Truth.bnot (Logic.Truth.var 2 1))
  in
  check "v = NOR(u,z) (Example 4)" true (Logic.Truth.equal tt expected)

let test_example2_infeasibility () =
  (* Full exhaustive simulation of Table I: uz = 10 appears with v = 1 (at
     abcd=0001) and v = 0 (at abcd=0010): infeasible. *)
  let u = Bitvec.of_string "0111011101110111" in
  let z = Bitvec.of_string "0000110011001100" in
  let v = Bitvec.of_string "1100000000110000" in
  let sigs = [| Bitvec.create 16; u; z; v |] in
  check "infeasible (Example 2)" true
    (Core.Care.scan ~sigs ~node:3 ~divisors:[| 1; 2 |] ~rounds:16 () = None)

let test_care_unseen_tuples_are_dc () =
  let sigs = example_sigs () in
  let care = feasible_scan ~sigs ~node:3 ~divisors:[| 1; 2 |] ~rounds:5 () in
  let on, dc = Core.Resub.tables care in
  check "tuple 11 is dc" true (Logic.Truth.get dc 3);
  check "tuple 00 is on" true (Logic.Truth.get on 0);
  check "on and dc disjoint" true (Logic.Truth.is_const0 (Logic.Truth.band on dc))

(* Care tables over [k] divisors, one per base-3 code: tuple [i] is
   unseen, observed 0 or observed 1 by digit [i] of the code. *)
let care_of_code k code =
  let table =
    Array.init (1 lsl k) (fun i ->
        let rec digit c i = if i = 0 then c mod 3 else digit (c / 3) (i - 1) in
        match digit code i with
        | 0 -> Core.Care.Unseen
        | 1 -> Core.Care.Value false
        | _ -> Core.Care.Value true)
  in
  let care_count =
    Array.fold_left (fun n e -> if e = Core.Care.Unseen then n else n + 1) 0 table
  in
  { Core.Care.divisors = Array.init k (fun i -> i + 1); table; care_count }

let espresso care =
  let on, dc = Core.Resub.tables care in
  Logic.Espresso.minimize ~on ~dc

let test_derive_table_oracle () =
  let tables = ref 0 in
  List.iter
    (fun (k, n) ->
      for code = 0 to n - 1 do
        incr tables;
        let care = care_of_code k code in
        let cover = Core.Resub.derive care and expected = espresso care in
        if cover <> expected then Alcotest.failf "k=%d code %d: cover differs" k code;
        if Core.Resub.expr_of_cover cover <> Logic.Factor.of_cover expected then
          Alcotest.failf "k=%d code %d: factored form differs" k code
      done)
    [ (1, 9); (2, 81) ];
  check_int "all 1- and 2-divisor care tables" 90 !tables;
  (* Wider sets still go to Espresso: random 3-divisor tables. *)
  let rng = Logic.Rng.create 5 in
  for _ = 1 to 300 do
    let care = care_of_code 3 (Logic.Rng.int rng 6561) in
    check "3-divisor cover = Espresso" true (Core.Resub.derive care = espresso care)
  done

(* ---------- Care scan (Section III-B2) ---------- *)

(* The per-round scan [Care.scan] replaced, kept as its oracle: every valid
   round in turn, its tuple built from the divisor bits, the target bit
   recorded; [None] when some tuple shows both target values. *)
let reference_scan ?mask ~sigs ~node ~divisors ~rounds () =
  let table = Array.make (1 lsl Array.length divisors) Core.Care.Unseen in
  let conflict = ref false in
  for r = 0 to rounds - 1 do
    if Option.fold ~none:true ~some:(fun m -> Bitvec.get m r) mask then begin
      let tuple = ref 0 in
      Array.iteri
        (fun i d -> if Bitvec.get sigs.(d) r then tuple := !tuple lor (1 lsl i))
        divisors;
      let v = Bitvec.get sigs.(node) r in
      match table.(!tuple) with
      | Core.Care.Unseen -> table.(!tuple) <- Core.Care.Value v
      | Core.Care.Value v0 -> if v0 <> v then conflict := true
    end
  done;
  if !conflict then None
  else
    let care_count =
      Array.fold_left (fun n e -> if e = Core.Care.Unseen then n else n + 1) 0 table
    in
    Some { Core.Care.divisors; table; care_count }

let test_scan_reference () =
  let rng = Logic.Rng.create 19 in
  let infeasible = ref 0 and flips = ref 0 and flip_conflicts = ref 0 in
  for k = 0 to 4 do
    List.iter
      (fun rounds ->
        for trial = 1 to 6 do
          (* Signatures run 70 bits past [rounds], so a scan that reads
             beyond its last round sees random data. *)
          let len = rounds + 70 in
          let sigs = Array.init (k + 1) (fun _ -> Bitvec.random rng len) in
          let divisors = Array.init k (fun i -> k - i) in
          let tuple r =
            Array.to_list divisors
            |> List.mapi (fun i d -> if Bitvec.get sigs.(d) r then 1 lsl i else 0)
            |> List.fold_left ( lor ) 0
          in
          (* Node 0 is the target: a random signature; a random function of
             the divisors; that function with its last round flipped. *)
          let f = Logic.Rng.bits62 rng in
          let func = Bitvec.init len (fun r -> (f lsr tuple r) land 1 = 1) in
          let flipped = Bitvec.copy func in
          Bitvec.set flipped (rounds - 1) (not (Bitvec.get func (rounds - 1)));
          let random_mask = Bitvec.random rng len in
          let all = Bitvec.init len (fun _ -> true) in
          let without_flip m =
            let m = Bitvec.copy m in
            Bitvec.set m (rounds - 1) false;
            m
          in
          List.iter
            (fun (what, target, masks) ->
              sigs.(0) <- target;
              List.iter
                (fun mask ->
                  let got = Core.Care.scan ?mask ~sigs ~node:0 ~divisors ~rounds ()
                  and expected = reference_scan ?mask ~sigs ~node:0 ~divisors ~rounds () in
                  if got <> expected then
                    Alcotest.failf "k=%d rounds=%d trial %d %s mask=%b: scan differs" k rounds
                      trial what (mask <> None);
                  if got = None then incr infeasible;
                  if (what = "function" || what = "flip masked") && got = None then
                    Alcotest.failf "k=%d rounds=%d %s: a function of the divisors conflicts" k
                      rounds what;
                  (* Past one word, the flip conflicts unless its tuple shows
                     nowhere else — rare at 16 tuples or fewer. *)
                  if what = "flipped" && mask = None && rounds > Bitvec.word_bits then begin
                    incr flips;
                    if got = None then incr flip_conflicts
                  end)
                masks)
            [
              ("random", Bitvec.random rng len, [ None; Some random_mask ]);
              ("function", func, [ None; Some random_mask ]);
              ("flipped", flipped, [ None; Some random_mask ]);
              ("flip masked", flipped, [ Some (without_flip all); Some (without_flip random_mask) ]);
            ]
        done)
      [ 1; 5; 61; 62; 63; 124; 125; 1024 ]
  done;
  check "conflicts exercised" true (!infeasible > 400);
  check "late flips conflict" true (!flip_conflicts * 10 >= !flips * 9)

(* ---------- LAC generation (Algorithm 2) ---------- *)

let redundant_circuit () =
  (* f = (a & b) | (a & b & c): node (a&b&c) is approximable/redundant-ish. *)
  let g = Graph.create () in
  let a = Graph.add_pi g and b = Graph.add_pi g and c = Graph.add_pi g in
  let ab = Graph.and_ g a b in
  let abc = Graph.and_ g ab c in
  ignore (Graph.add_po g (Aig.Builder.or_ g ab abc));
  g

let test_lac_generation () =
  let g = redundant_circuit () in
  let config = Core.Config.default ~metric:Errest.Metrics.Er ~threshold:0.1 in
  let rng = Logic.Rng.create 3 in
  let pats = Sim.Patterns.random rng ~npis:3 ~len:32 in
  let sigs = Sim.Engine.simulate g pats in
  let lacs = Core.Lac.generate g ~config ~sigs ~rounds:32 in
  check "found candidates" true (lacs <> []);
  List.iter
    (fun (lac : Core.Lac.t) ->
      check "non-negative gain" true (lac.Core.Lac.gain >= 0);
      check "divisors below target" true
        (Array.for_all (fun d -> d < lac.Core.Lac.target) lac.Core.Lac.divisors))
    lacs

let test_lac_respects_limit () =
  let g = redundant_circuit () in
  let config =
    { (Core.Config.default ~metric:Errest.Metrics.Er ~threshold:0.1) with
      Core.Config.lac_limit = 1 }
  in
  let rng = Logic.Rng.create 3 in
  let pats = Sim.Patterns.random rng ~npis:3 ~len:32 in
  let sigs = Sim.Engine.simulate g pats in
  let lacs = Core.Lac.generate g ~config ~sigs ~rounds:32 in
  (* At most one LAC per node. *)
  let per_node = Hashtbl.create 8 in
  List.iter
    (fun (lac : Core.Lac.t) ->
      let n = Option.value ~default:0 (Hashtbl.find_opt per_node lac.Core.Lac.target) in
      Hashtbl.replace per_node lac.Core.Lac.target (n + 1))
    lacs;
  Hashtbl.iter (fun _ n -> check_int "L=1 respected" 1 n) per_node

(* The eager Algorithm 2 that [Lac.generate] replaced, kept as its oracle.
   [eager_ranked] care-scans every set of [Reference.select] and stable-sorts
   each target's feasible sets by savings; [eager_lacs] then derives
   (Espresso called directly) in that order until 8 sets are derived or
   [lac_limit] candidates found. *)
let eager_ranked ?obs g ~max_tfi ~sigs ~rounds =
  let fanouts = Aig.Topo.fanout_counts g in
  let per_node = ref [] in
  Graph.iter_ands g (fun v ->
      if fanouts.(v) > 0 then begin
        let mffc = Aig.Cone.mffc g ~fanouts v in
        let in_mffc = mffc_table mffc and mffc_size = List.length mffc in
        let mask = Option.map (fun o -> o.(v)) obs in
        let feasible =
          List.filter_map
            (fun divisors ->
              Core.Care.scan ?mask ~sigs ~node:v ~divisors ~rounds ()
              |> Option.map (fun care ->
                     (Reference.true_savings g ~in_mffc ~mffc_size divisors, divisors, care)))
            (Reference.select g ~max_tfi v)
        in
        per_node :=
          (v, List.stable_sort (fun (s1, _, _) (s2, _, _) -> compare s2 s1) feasible)
          :: !per_node
      end);
  List.rev !per_node

let eager_lacs ranked ~lac_limit =
  List.concat_map
    (fun (v, feasible) ->
      let found = ref 0 and derived = ref 0 and lacs = ref [] in
      List.iter
        (fun (savings, divisors, care) ->
          if !derived < 8 && !found < lac_limit && savings >= 1 then begin
            incr derived;
            let cover = espresso care in
            let expr = Logic.Factor.of_cover cover in
            let gain = savings - Logic.Factor.and2_cost expr in
            if gain >= 0 then begin
              incr found;
              lacs := { Core.Lac.target = v; divisors; cover; expr; gain } :: !lacs
            end
          end)
        feasible;
      !lacs)
    ranked

let test_jobs = Util.test_jobs

let approx_suite = [ "c880"; "router"; "rca32"; "cavlc"; "adder"; "log2"; "int2float" ]

let test_lac_eager_oracle () =
  let graphs =
    List.init 200 (fun seed -> (Printf.sprintf "gen %d" seed, gen_circuit seed))
    @ List.map
        (fun name -> (name, Graph.compact ((Option.get (Circuits.Suite.find name)).build ())))
        approx_suite
  in
  let configs = ref 0 and nonempty = ref 0 in
  Parallel.Pool.with_pool ~jobs:test_jobs (fun wide ->
      Parallel.Pool.with_pool ~jobs:1 (fun narrow ->
          List.iteri
            (fun i (name, g) ->
              List.iter
                (fun rounds ->
                  let pats =
                    Sim.Patterns.random (Logic.Rng.create (i + rounds)) ~npis:(Graph.num_pis g)
                      ~len:rounds
                  in
                  let sigs = Sim.Engine.simulate g pats in
                  let masks = Errest.Observability.masks g ~sigs in
                  List.iter
                    (fun (max_tfi_divisors, odc) ->
                      let obs = if odc then Some masks else None in
                      let ranked = eager_ranked ?obs g ~max_tfi:max_tfi_divisors ~sigs ~rounds in
                      List.iter
                        (fun lac_limit ->
                          let expected = eager_lacs ranked ~lac_limit in
                          incr configs;
                          if expected <> [] then incr nonempty;
                          let config =
                            { (Core.Config.default ~metric:Errest.Metrics.Er ~threshold:0.01) with
                              Core.Config.lac_limit; max_tfi_divisors }
                          in
                          List.iter
                            (fun pool ->
                              if Core.Lac.generate ?obs ~pool g ~config ~sigs ~rounds <> expected
                              then
                                Alcotest.failf
                                  "%s rounds=%d L=%d max_tfi=%d odc=%b jobs=%d: LACs differ"
                                  name rounds lac_limit max_tfi_divisors odc
                                  (Parallel.Pool.size pool))
                            [ narrow; wide ])
                        [ 1; 4 ])
                    (List.concat_map (fun cap -> [ (cap, false); (cap, true) ]) [ 1; 3; 5000 ]))
                [ 4; 17; 62; 63; 130 ])
            graphs));
  check_int "every configuration ran" (207 * 5 * 12) !configs;
  check "most configurations produce LACs" true (2 * !nonempty > !configs)

(* ---------- Candidate memo ---------- *)

(* An enumerated distribution over [npis] inputs: 40 seeded rows with
   uneven weights. *)
let enum_distr ~seed ~npis =
  let rng = Logic.Rng.create seed in
  Errest.Distr.enum
    ~rows:(Array.init 40 (fun _ -> Array.init npis (fun _ -> Logic.Rng.bool rng)))
    ~weights:(Array.init 40 (fun i -> float_of_int (1 + (i mod 7))))

(* Every answer of one memo, across five care draws on [g], against a
   fresh simulation + batch + scoring and a fresh rebuild + size/depth
   check.  Returns a graph one accepted candidate away (for the next round
   on the same memo) and how many answers came from the memo. *)
let memo_rounds ~what ~pool ~memo ~distr ?weights ~metric ~golden ~patterns ~depth_limit g =
  let config =
    { (Core.Config.default ~metric ~threshold:0.01) with Core.Config.lac_limit = 4 }
  in
  let rng = Logic.Rng.create (Graph.num_nodes g) in
  let rb = Graph.rebuilder () in
  let next = ref None in
  List.iteri
    (fun draw rounds ->
      let care = Errest.Distr.sample distr rng ~npis:(Graph.num_pis g) ~len:rounds in
      let sigs = Sim.Engine.simulate g care in
      let lacs = Array.of_list (Core.Lac.generate ~pool g ~config ~sigs ~rounds) in
      let errs = Core.Lac_memo.errors memo g lacs in
      let base = Sim.Engine.simulate g patterns in
      let batch = Errest.Batch.create ?weights g ~metric ~golden ~base in
      let fresh =
        Errest.Batch.candidate_errors batch
          (Array.map
             (fun (lac : Core.Lac.t) ->
               let pos_sigs = Array.map (fun d -> base.(d)) lac.Core.Lac.divisors in
               (lac.Core.Lac.target, Logic.Cover.eval_sigs lac.Core.Lac.cover ~pos_sigs))
             lacs)
      in
      Array.iteri
        (fun i (lac : Core.Lac.t) ->
          if not (Float.equal errs.(i) fresh.(i)) then
            Alcotest.failf "%s draw %d: %a scored %h, fresh %h" what draw Core.Lac.pp lac
              errs.(i) fresh.(i);
          (* Rebuilds are linear in the graph: on the large circuits only
             the first candidates are size-checked. *)
          if i < 48 then begin
            let verdict =
              match Core.Lac_memo.rebuild memo rb g lac with
              | Some r ->
                  Graph.recycle rb r;
                  true
              | None -> false
            in
            let r =
              Graph.rebuild
                ~replace:(fun id ->
                  if id = lac.Core.Lac.target then Some (Core.Lac.replacement lac) else None)
                g
            in
            let expected =
              Graph.num_ands r < Graph.num_ands g && Aig.Topo.depth r <= depth_limit
            in
            if verdict <> expected then
              Alcotest.failf "%s draw %d: %a verdict %b, fresh %b" what draw Core.Lac.pp lac
                verdict expected;
            if expected && !next = None then next := Some r
          end)
        lacs)
    [ 32; 17; 32; 8; 32 ];
  match !next with Some r -> r | None -> Graph.compact g

let test_memo_oracle () =
  let graphs =
    List.init 100 (fun seed -> (Printf.sprintf "gen %d" seed, gen_circuit seed))
    @ List.map
        (fun name -> (name, Graph.compact ((Option.get (Circuits.Suite.find name)).build ())))
        approx_suite
  in
  let hits = ref 0 and skipped = ref 0 and answers = ref 0 in
  Parallel.Pool.with_pool ~jobs:test_jobs (fun wide ->
      Parallel.Pool.with_pool ~jobs:1 (fun narrow ->
          List.iteri
            (fun i (name, g) ->
              let npis = Graph.num_pis g in
              List.iter
                (fun (dname, distr) ->
                  let patterns, weights =
                    match distr with
                    | Errest.Distr.Unif ->
                        (Sim.Patterns.random (Logic.Rng.create i) ~npis ~len:300, None)
                    | Errest.Distr.Enum _ ->
                        (Errest.Distr.signatures distr, Errest.Distr.round_weights distr)
                  in
                  let golden = Sim.Engine.simulate_pos g patterns in
                  List.iter
                    (fun metric ->
                      List.iter
                        (fun pool ->
                          let what =
                            Printf.sprintf "%s %s %s jobs=%d" name dname
                              (Errest.Metrics.kind_to_string metric)
                              (Parallel.Pool.size pool)
                          in
                          (* A tight depth limit, so that some raw rebuilds
                             fail on depth rather than size. *)
                          let depth_limit = Aig.Topo.depth g in
                          let memo =
                            Core.Lac_memo.create ?weights ~pool ~metric ~golden ~patterns
                              ~depth_limit ()
                          in
                          let round g =
                            memo_rounds ~what ~pool ~memo ~distr ?weights ~metric ~golden
                              ~patterns ~depth_limit g
                          in
                          (* The second graph follows an accepted candidate:
                             nothing memoised on the first may answer for it. *)
                          ignore (round (round g) : Graph.t);
                          let st = Core.Lac_memo.stats memo in
                          hits := !hits + st.Core.Lac_memo.memoised;
                          skipped := !skipped + st.Core.Lac_memo.rebuilds_skipped;
                          answers :=
                            !answers + st.Core.Lac_memo.memoised
                            + st.Core.Lac_memo.kernel.Errest.Batch.scored)
                        [ narrow; wide ])
                    [ Errest.Metrics.Er; Errest.Metrics.Mred ])
                [ ("unif", Errest.Distr.Unif); ("enum", enum_distr ~seed:i ~npis) ])
            graphs));
  check "most errors came from the memo" true (2 * !hits > !answers);
  check "rejections were memoised" true (!skipped > 0)

(* ---------- Flow (Algorithm 3) ---------- *)

let test_flow_zero_threshold_keeps_function () =
  (* With threshold 0 and exhaustive evaluation, only error-free LACs are
     applied, so the result is exactly equivalent. *)
  let g = redundant_circuit () in
  let config =
    { (Core.Config.default ~metric:Errest.Metrics.Er ~threshold:0.0) with
      Core.Config.eval_rounds = 8; max_iters = 20 }
  in
  let approx, report = Core.Flow.run ~config g in
  check "equivalent" true (Util.equivalent g approx);
  check "report consistent" true (report.Core.Flow.output_ands = Graph.num_ands approx)

let test_flow_reduces_area_under_er () =
  (* Random control logic (cavlc class) at ER 5%: 10 PIs, so the evaluation
     set is exhaustive and all flow errors are exact. *)
  let g = Circuits.Epfl_control.cavlc () in
  let config =
    { (Core.Config.default ~metric:Errest.Metrics.Er ~threshold:0.05) with
      Core.Config.eval_rounds = 2048; max_iters = 300; seed = 7 }
  in
  let approx, report = Core.Flow.run ~config g in
  check "area reduced" true (Graph.num_ands approx < Graph.num_ands (Graph.compact g));
  check "sampled error within threshold" true
    (report.Core.Flow.final_est_error <= 0.05 +. 1e-9);
  (* Exhaustive evaluation: the measured error is exact. *)
  let exact = Errest.Metrics.evaluate Errest.Metrics.Er ~original:g ~approx in
  check "exact error within threshold" true (exact <= 0.05 +. 1e-9);
  check "interface preserved" true
    (Graph.num_pis approx = Graph.num_pis g && Graph.num_pos approx = Graph.num_pos g)

let test_flow_nmed () =
  let g = Circuits.Multipliers.wallace ~width:4 in
  let config =
    { (Core.Config.default ~metric:Errest.Metrics.Nmed ~threshold:0.01) with
      Core.Config.eval_rounds = 256; max_iters = 200; seed = 11 }
  in
  let approx, report = Core.Flow.run ~config g in
  check "area reduced" true (report.Core.Flow.output_ands < report.Core.Flow.input_ands);
  let exact = Errest.Metrics.evaluate Errest.Metrics.Nmed ~original:g ~approx in
  check "nmed within 2x threshold" true (exact <= 0.02)

let test_flow_deterministic () =
  let g = Circuits.Multipliers.array_mult ~width:4 in
  let config =
    { (Core.Config.default ~metric:Errest.Metrics.Er ~threshold:0.03) with
      Core.Config.eval_rounds = 256; max_iters = 100; seed = 13 }
  in
  let a1, r1 = Core.Flow.run ~config g in
  let a2, r2 = Core.Flow.run ~config g in
  check_int "same result size" (Graph.num_ands a1) (Graph.num_ands a2);
  check_int "same applied count" r1.Core.Flow.applied r2.Core.Flow.applied

let test_flow_rounds_shrink () =
  (* threshold 0 on an irredundant circuit: no (error-free, gainful) LAC
     exists, so N must shrink over the patience window and the flow stop. *)
  let g = Circuits.Adders.kogge_stone ~width:4 in
  let config =
    { (Core.Config.default ~metric:Errest.Metrics.Er ~threshold:0.0) with
      Core.Config.eval_rounds = 512; max_iters = 50; seed = 17; sim_rounds = 32 }
  in
  let approx, report = Core.Flow.run ~config g in
  check "terminates" true (report.Core.Flow.final_rounds <= 32);
  check "equivalent at zero threshold" true (Util.equivalent g approx)

let test_odc_masked_scan () =
  (* The Example-2 conflict disappears when the conflicting rounds are
     masked out as unobservable. *)
  let u = Bitvec.of_string "0111011101110111" in
  let z = Bitvec.of_string "0000110011001100" in
  let v = Bitvec.of_string "1100000000110000" in
  let sigs = [| Bitvec.create 16; u; z; v |] in
  let unmasked = Core.Care.scan ~sigs ~node:3 ~divisors:[| 1; 2 |] ~rounds:16 () in
  check "conflict without mask" true (unmasked = None);
  (* Mask the minority rounds of both conflicting tuples (uz=10 conflicts
     through round 1; uz=11 through rounds 10 and 11). *)
  let mask = Bitvec.init 16 (fun m -> not (m = 1 || m = 10 || m = 11)) in
  let masked = Core.Care.scan ~mask ~sigs ~node:3 ~divisors:[| 1; 2 |] ~rounds:16 () in
  check "feasible under mask" true (Option.is_some masked)

let test_flow_with_odc () =
  let g = Circuits.Epfl_control.cavlc () in
  let config =
    { (Core.Config.default ~metric:Errest.Metrics.Er ~threshold:0.05) with
      Core.Config.eval_rounds = 2048; max_iters = 300; seed = 7; use_odc = true }
  in
  let approx, _ = Core.Flow.run ~config g in
  let exact = Errest.Metrics.evaluate Errest.Metrics.Er ~original:g ~approx in
  check "odc flow respects threshold (exhaustive eval)" true (exact <= 0.05 +. 1e-9);
  check "odc flow reduced area" true
    (Graph.num_ands approx < Graph.num_ands (Graph.compact g))

let test_flow_depth_guard () =
  (* With a tight depth guard the result must stay within the bound; the
     kogge-stone adder is the circuit most tempted to serialize. *)
  let g = Circuits.Adders.kogge_stone ~width:8 in
  let original_depth = Aig.Topo.depth (Aig.Resyn.compress2 (Graph.compact g)) in
  let config =
    { (Core.Config.default ~metric:Errest.Metrics.Er ~threshold:0.10) with
      Core.Config.eval_rounds = 2048; max_iters = 100; seed = 19;
      max_depth_growth = 1.0 }
  in
  let approx, _ = Core.Flow.run ~config g in
  check "depth preserved" true (Aig.Topo.depth approx <= original_depth)

let test_stop_reason_strings () =
  List.iter
    (fun (reason, text) ->
      Alcotest.(check string) text text (Core.Flow.stop_reason_to_string reason))
    [
      (Core.Flow.Budget_exhausted, "budget-exhausted");
      (Core.Flow.Stalled, "stalled");
      (Core.Flow.Max_iters, "max-iters");
      (Core.Flow.Emptied, "emptied");
      (Core.Flow.Timed_out, "timed-out");
    ]

(* The stop reason names what ended the loop.  At ER threshold -1 every
   candidate of the first iteration is over budget, so the run ends
   budget-exhausted; it still does when the clock passes [max_seconds]
   during that iteration, here because the cancel hook sleeps past it on
   its first poll (at jobs = 1, the loop's own check before iteration 1).
   At a 5% threshold the first iteration leaves the run going, so the
   clock ends the loop and the reason is timed-out. *)
let test_stop_reason_not_overwritten () =
  let c880 () = (Option.get (Circuits.Suite.find "c880")).Circuits.Suite.build () in
  let max_seconds = 2.0 in
  let sleep_past_budget () =
    let polled = ref false in
    fun () ->
      if not !polled then begin
        polled := true;
        Unix.sleepf (max_seconds +. 0.1)
      end;
      false
  in
  let stop ?cancel threshold =
    let config =
      { (Core.Config.default ~metric:Errest.Metrics.Er ~threshold) with
        Core.Config.max_seconds }
    in
    let _, r = Core.Flow.run ?cancel ~config (c880 ()) in
    Core.Flow.stop_reason_to_string r.Core.Flow.stop_reason
  in
  Alcotest.(check string) "plain run" "budget-exhausted" (stop (-1.0));
  Alcotest.(check string) "clock passed during the deciding iteration"
    "budget-exhausted" (stop ~cancel:(sleep_past_budget ()) (-1.0));
  Alcotest.(check string) "clock ended the loop" "timed-out"
    (stop ~cancel:(sleep_past_budget ()) 0.05)

let () =
  Alcotest.run "core-alsrac"
    [
      ( "divisors",
        [
          Alcotest.test_case "set shapes" `Quick test_divisor_sets_shape;
          Alcotest.test_case "early stop" `Quick test_divisor_iter_stops;
          Alcotest.test_case "ranked walk = sorted eager sets" `Quick test_ranked_walk_oracle;
        ] );
      ( "paper-examples",
        [
          Alcotest.test_case "example 3: feasibility" `Quick test_example3_feasibility;
          Alcotest.test_case "example 4: resub function" `Quick test_example4_resub_function;
          Alcotest.test_case "example 2: infeasibility" `Quick test_example2_infeasibility;
          Alcotest.test_case "unseen tuples are dc" `Quick test_care_unseen_tuples_are_dc;
          Alcotest.test_case "derivation table = espresso" `Quick test_derive_table_oracle;
        ] );
      ("care", [ Alcotest.test_case "scan = per-round reference" `Quick test_scan_reference ]);
      ( "lac",
        [
          Alcotest.test_case "generation" `Quick test_lac_generation;
          Alcotest.test_case "limit" `Quick test_lac_respects_limit;
          Alcotest.test_case "ranked generation = eager oracle" `Quick test_lac_eager_oracle;
          Alcotest.test_case "memo = fresh scoring and size checks" `Quick test_memo_oracle;
        ] );
      ( "flow",
        [
          Alcotest.test_case "zero threshold" `Quick test_flow_zero_threshold_keeps_function;
          Alcotest.test_case "er reduces area" `Quick test_flow_reduces_area_under_er;
          Alcotest.test_case "nmed" `Quick test_flow_nmed;
          Alcotest.test_case "deterministic" `Quick test_flow_deterministic;
          Alcotest.test_case "rounds shrink" `Quick test_flow_rounds_shrink;
          Alcotest.test_case "depth guard" `Quick test_flow_depth_guard;
          Alcotest.test_case "odc masked scan" `Quick test_odc_masked_scan;
          Alcotest.test_case "odc flow" `Quick test_flow_with_odc;
          Alcotest.test_case "stop reason strings" `Quick test_stop_reason_strings;
          Alcotest.test_case "stop reason not overwritten" `Quick
            test_stop_reason_not_overwritten;
        ] );
    ]
