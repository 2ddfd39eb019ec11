module Bitvec = Logic.Bitvec
module Truth = Logic.Truth
module Cube = Logic.Cube
module Cover = Logic.Cover

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- Rng ---------- *)

let test_rng_determinism () =
  let a = Logic.Rng.create 42 and b = Logic.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Logic.Rng.next64 a) (Logic.Rng.next64 b)
  done

let test_rng_int_range () =
  let rng = Logic.Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Logic.Rng.int rng 17 in
    check "in range" true (v >= 0 && v < 17)
  done

let test_rng_float_range () =
  let rng = Logic.Rng.create 9 in
  for _ = 1 to 1000 do
    let v = Logic.Rng.float rng in
    check "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_split_decorrelated () =
  let rng = Logic.Rng.create 3 in
  let child = Logic.Rng.split rng in
  check "different streams" false (Logic.Rng.next64 rng = Logic.Rng.next64 child)

(* ---------- Bitvec ---------- *)

let test_bitvec_get_set () =
  let v = Bitvec.create 200 in
  Bitvec.set v 0 true;
  Bitvec.set v 63 true;
  Bitvec.set v 62 true;
  Bitvec.set v 199 true;
  check "bit 0" true (Bitvec.get v 0);
  check "bit 1" false (Bitvec.get v 1);
  check "bit 62 (word boundary)" true (Bitvec.get v 62);
  check "bit 63" true (Bitvec.get v 63);
  check "bit 199" true (Bitvec.get v 199);
  check_int "popcount" 4 (Bitvec.popcount v);
  Bitvec.set v 63 false;
  check "cleared" false (Bitvec.get v 63);
  check_int "popcount after clear" 3 (Bitvec.popcount v)

let test_bitvec_bounds () =
  let v = Bitvec.create 10 in
  Alcotest.check_raises "get oob" (Invalid_argument "Bitvec: index out of bounds")
    (fun () -> ignore (Bitvec.get v 10))

let test_bitvec_string_roundtrip () =
  let s = "0110101100111010101010101010101010101011110101010101010101010111000" in
  let v = Bitvec.of_string s in
  Alcotest.(check string) "roundtrip" s (Bitvec.to_string v)

let test_bitvec_fill () =
  let v = Bitvec.create 100 in
  Bitvec.fill v true;
  check_int "all ones" 100 (Bitvec.popcount v);
  check "is_ones" true (Bitvec.is_ones v);
  Bitvec.fill v false;
  check "is_zero" true (Bitvec.is_zero v)

let test_bitvec_iter_set () =
  let v = Bitvec.of_string "0101000001" in
  let seen = ref [] in
  Bitvec.iter_set v (fun i -> seen := i :: !seen);
  Alcotest.(check (list int)) "set bits in order" [ 1; 3; 9 ] (List.rev !seen)

(* The phase-canonical hash and equality as [Sim.Fraig], [Divisor.collect]
   and [bench core] each inlined them before [Bitvec.canon_hash] and
   [Bitvec.canon_equal], over [rounds]-bit signatures with explicit
   phases. *)
let inline_canon ~rounds =
  let tail =
    let rem = rounds mod Bitvec.word_bits in
    if rem = 0 then Bitvec.word_mask else (1 lsl rem) - 1
  in
  let canon_hash s invert =
    let words = Bitvec.unsafe_words s in
    let nw = Array.length words in
    let inv = if invert then Bitvec.word_mask else 0 in
    let h = ref 0 in
    for i = 0 to nw - 1 do
      let w = words.(i) lxor inv in
      let w = if i = nw - 1 then w land tail else w in
      h := (!h * 0x9E3779B1) lxor w
    done;
    let h = !h lxor (!h lsr 16) in
    h * 0x85EBCA77 land max_int
  in
  let canon_equal a inva b invb =
    let wa = Bitvec.unsafe_words a and wb = Bitvec.unsafe_words b in
    let nw = Array.length wa in
    let eq = ref true in
    let i = ref 0 in
    if inva = invb then
      while !eq && !i < nw do
        if wa.(!i) <> wb.(!i) then eq := false;
        incr i
      done
    else
      while !eq && !i < nw do
        let m = if !i = nw - 1 then tail else Bitvec.word_mask in
        if wa.(!i) lxor wb.(!i) <> m then eq := false;
        incr i
      done;
    !eq
  in
  (canon_hash, canon_equal)

let test_bitvec_canon_matches_inline () =
  let rng = Logic.Rng.create 11 in
  List.iter
    (fun len ->
      let old_hash, old_equal = inline_canon ~rounds:len in
      let phase v = Bitvec.get v 0 in
      let base =
        [ Bitvec.create len; Bitvec.init len (fun i -> i = 0);
          Bitvec.init len (fun i -> i = len - 1) ]
        @ List.init 6 (fun _ -> Bitvec.random rng len)
      in
      let vs = base @ List.map Bitvec.lognot base in
      List.iter
        (fun v ->
          let name what = Printf.sprintf "len %d %s: %s" len (Bitvec.to_string v) what in
          check_int (name "hash") (old_hash v (phase v)) (Bitvec.canon_hash v);
          check_int (name "hash of the complement") (Bitvec.canon_hash v)
            (Bitvec.canon_hash (Bitvec.lognot v));
          List.iter
            (fun w ->
              check (name ("equal to " ^ Bitvec.to_string w))
                (old_equal v (phase v) w (phase w))
                (Bitvec.canon_equal v w))
            vs)
        vs)
    [ 1; 61; 62; 63; 124; 130 ]

let bitvec_pair_gen =
  QCheck.Gen.(
    let* len = int_range 1 300 in
    let* a = list_repeat len bool in
    let* b = list_repeat len bool in
    return (Array.of_list a, Array.of_list b))

let bitvec_pair =
  QCheck.make bitvec_pair_gen ~print:(fun (a, _) ->
      Printf.sprintf "len=%d" (Array.length a))

let of_bools bits = Bitvec.init (Array.length bits) (fun i -> bits.(i))

let prop_bitvec_ops =
  QCheck.Test.make ~name:"bitvec logic matches naive" ~count:200 bitvec_pair
    (fun (a, b) ->
      let va = of_bools a and vb = of_bools b in
      let expect f = Array.init (Array.length a) (fun i -> f a.(i) b.(i)) in
      Bitvec.equal (Bitvec.logand va vb) (of_bools (expect ( && )))
      && Bitvec.equal (Bitvec.logor va vb) (of_bools (expect ( || )))
      && Bitvec.equal (Bitvec.logxor va vb) (of_bools (expect ( <> )))
      && Bitvec.equal (Bitvec.lognot va)
           (of_bools (Array.map not a))
      && Bitvec.popcount va
         = Array.fold_left (fun acc x -> if x then acc + 1 else acc) 0 a
      && Bitvec.hamming va vb
         = Array.fold_left ( + ) 0
             (Array.init (Array.length a) (fun i -> if a.(i) <> b.(i) then 1 else 0)))

let prop_bitvec_inplace =
  QCheck.Test.make ~name:"in-place ops match pure ops" ~count:100 bitvec_pair
    (fun (a, b) ->
      let va = of_bools a and vb = of_bools b in
      let c = Bitvec.copy va in
      Bitvec.logand_inplace c vb;
      let d = Bitvec.copy va in
      Bitvec.logor_inplace d vb;
      Bitvec.equal c (Bitvec.logand va vb) && Bitvec.equal d (Bitvec.logor va vb))

(* ---------- Truth ---------- *)

let test_truth_var () =
  let t = Truth.var 3 1 in
  for m = 0 to 7 do
    check "projection" ((m lsr 1) land 1 = 1) (Truth.get t m)
  done

let test_truth_var_large () =
  (* Variables above the word boundary. *)
  let t = Truth.var 8 7 in
  check "m=127" false (Truth.get t 127);
  check "m=128" true (Truth.get t 128);
  check "m=255" true (Truth.get t 255);
  let ones = ref 0 in
  for m = 0 to 255 do
    if Truth.get t m then incr ones
  done;
  check_int "count" 128 !ones

let truth_gen nvars =
  QCheck.Gen.(
    let* bits = list_repeat (1 lsl nvars) bool in
    return (Truth.of_fun nvars (fun m -> List.nth bits m)))

let arb_truth nvars =
  QCheck.make (truth_gen nvars) ~print:(fun t -> "0x" ^ Truth.to_hex t)

let prop_shannon nvars =
  QCheck.Test.make
    ~name:(Printf.sprintf "shannon expansion holds (%d vars)" nvars)
    ~count:100 (arb_truth nvars)
    (fun t ->
      List.for_all
        (fun v ->
          let x = Truth.var nvars v in
          let recomposed =
            Truth.bor
              (Truth.band x (Truth.cofactor1 t v))
              (Truth.band (Truth.bnot x) (Truth.cofactor0 t v))
          in
          Truth.equal recomposed t)
        (List.init nvars (fun i -> i)))

let prop_support =
  QCheck.Test.make ~name:"support matches depends_on" ~count:100 (arb_truth 5)
    (fun t ->
      let sup = Truth.support t in
      List.for_all (fun v -> List.mem v sup = Truth.depends_on t v)
        (List.init 5 (fun i -> i)))

let prop_shrink_expand =
  QCheck.Test.make ~name:"shrink_to_support then expand is identity" ~count:100
    (arb_truth 6) (fun t ->
      let small, sup = Truth.shrink_to_support t in
      let placement = Array.of_list sup in
      Truth.equal (Truth.expand small ~into:6 ~placement) t)

let test_truth_cofactor_word_boundary () =
  (* 8-variable table: cofactor on a variable above bit 6. *)
  let t = Truth.band (Truth.var 8 7) (Truth.var 8 0) in
  check "cof1(7) = var0" true (Truth.equal (Truth.cofactor1 t 7) (Truth.var 8 0));
  check "cof0(7) = const0" true (Truth.is_const0 (Truth.cofactor0 t 7))

let test_truth_hex () =
  let t = Truth.band (Truth.var 4 0) (Truth.var 4 1) in
  Alcotest.(check string) "hex of and2 over 4 vars" "8888" (Truth.to_hex t)

(* ---------- Cube / Cover ---------- *)

let test_cube_basics () =
  let c = Cube.add_lit (Cube.lit 0 true) 2 false in
  check "contains 001" true (Reference.cube_contains c 0b001);
  check "contains 101" false (Reference.cube_contains c 0b101);
  check "contains 011" true (Reference.cube_contains c 0b011);
  check_int "lits" 2 (Cube.num_lits c);
  Alcotest.(check string) "render" "1-0" (Cube.to_string 3 c)

let test_cube_contradiction () =
  Alcotest.check_raises "contradictory"
    (Invalid_argument "Cube.add_lit: contradictory literal") (fun () ->
      ignore (Cube.add_lit (Cube.lit 1 true) 1 false))

let test_cube_subsumes () =
  let big = Cube.lit 0 true in
  let small = Cube.add_lit (Cube.lit 0 true) 1 true in
  check "big subsumes small" true (Cube.subsumes big small);
  check "small does not subsume big" false (Cube.subsumes small big)

let test_cover_truth () =
  (* x0 x1 + !x0 x2 (a mux). *)
  let c =
    Cover.make 3
      [ Cube.add_lit (Cube.lit 0 true) 1 true; Cube.add_lit (Cube.lit 0 false) 2 true ]
  in
  let expected = Truth.of_fun 3 (fun m ->
      if m land 1 = 1 then (m lsr 1) land 1 = 1 else (m lsr 2) land 1 = 1)
  in
  check "mux function" true (Truth.equal (Cover.to_truth c) expected)

let test_cover_eval_sigs () =
  let rng = Logic.Rng.create 11 in
  let c =
    Cover.make 3
      [ Cube.add_lit (Cube.lit 0 true) 1 true; Cube.add_lit (Cube.lit 0 false) 2 true ]
  in
  let sigs = Array.init 3 (fun _ -> Bitvec.random rng 150) in
  let out = Cover.eval_sigs c ~pos_sigs:sigs in
  for m = 0 to 149 do
    let minterm = ref 0 in
    for v = 0 to 2 do
      if Bitvec.get sigs.(v) m then minterm := !minterm lor (1 lsl v)
    done;
    check "sig eval matches minterm eval" (Reference.eval_minterm c !minterm) (Bitvec.get out m)
  done

(* ---------- Isop / Espresso ---------- *)

let on_dc_gen nvars =
  QCheck.Gen.(
    let* on_bits = list_repeat (1 lsl nvars) bool in
    let* dc_bits = list_repeat (1 lsl nvars) (frequency [ (3, return false); (1, return true) ]) in
    let on = Truth.of_fun nvars (fun m -> List.nth on_bits m && not (List.nth dc_bits m)) in
    let dc = Truth.of_fun nvars (fun m -> List.nth dc_bits m) in
    return (on, dc))

let arb_on_dc nvars =
  QCheck.make (on_dc_gen nvars) ~print:(fun (on, dc) ->
      Printf.sprintf "on=%s dc=%s" (Truth.to_hex on) (Truth.to_hex dc))

let prop_isop_interval nvars =
  QCheck.Test.make
    ~name:(Printf.sprintf "isop stays in [on, on+dc] (%d vars)" nvars)
    ~count:200 (arb_on_dc nvars)
    (fun (on, dc) ->
      let cover = Logic.Isop.compute ~on ~dc in
      Cover.covers cover on && Cover.within cover (Truth.bor on dc))

let prop_isop_irredundant =
  QCheck.Test.make ~name:"isop has no single-cube redundancy" ~count:100
    (arb_on_dc 4) (fun (on, dc) ->
      let cover = Logic.Isop.compute ~on ~dc in
      let cubes = cover.Cover.cubes in
      (* Dropping any one cube must lose some ON-minterm. *)
      List.for_all
        (fun c ->
          let rest = List.filter (fun x -> not (Cube.equal x c)) cubes in
          not (Cover.covers (Cover.make 4 rest) on))
        cubes)

let prop_espresso_interval =
  QCheck.Test.make ~name:"espresso stays in interval and beats isop" ~count:100
    (arb_on_dc 5) (fun (on, dc) ->
      let isop = Logic.Isop.compute ~on ~dc in
      let esp = Logic.Espresso.minimize ~on ~dc in
      Cover.covers esp on
      && Cover.within esp (Truth.bor on dc)
      && Logic.Espresso.cost esp <= Logic.Espresso.cost isop)

let test_espresso_known () =
  (* on = {000, 001, 011, 010} over 3 vars: a single cube !x2. *)
  let on = Truth.of_fun 3 (fun m -> m < 4) in
  let cover = Logic.Espresso.minimize ~on ~dc:(Truth.const0 3) in
  check_int "one cube" 1 (Cover.num_cubes cover);
  check_int "one literal" 1 (Cover.num_lits cover)

let test_espresso_with_dc () =
  (* on = {3}, dc = {1, 2}: minimizes to a single-literal cube. *)
  let on = Truth.of_fun 2 (fun m -> m = 3) in
  let dc = Truth.of_fun 2 (fun m -> m = 1 || m = 2) in
  let cover = Logic.Espresso.minimize ~on ~dc in
  check_int "single cube" 1 (Cover.num_cubes cover);
  check_int "single literal" 1 (Cover.num_lits cover)

(* ---------- Factor ---------- *)

let prop_factor_correct =
  QCheck.Test.make ~name:"factored expression equals cover" ~count:200
    (arb_on_dc 5) (fun (on, dc) ->
      let cover = Logic.Isop.compute ~on ~dc in
      let expr = Logic.Factor.of_cover cover in
      let tt = Cover.to_truth cover in
      let ok = ref true in
      for m = 0 to 31 do
        let point = Array.init 5 (fun i -> (m lsr i) land 1 = 1) in
        if Logic.Factor.eval expr point <> Truth.get tt m then ok := false
      done;
      !ok)

let test_factor_shares_literals () =
  (* ab + ac should factor as a(b + c): 2 ANDs. *)
  let cover =
    Cover.make 3
      [ Cube.add_lit (Cube.lit 0 true) 1 true; Cube.add_lit (Cube.lit 0 true) 2 true ]
  in
  let expr = Logic.Factor.of_cover cover in
  check_int "factored cost" 2 (Logic.Factor.and2_cost expr)

let () =
  Alcotest.run "logic"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "split" `Quick test_rng_split_decorrelated;
        ] );
      ( "bitvec",
        [
          Alcotest.test_case "get/set" `Quick test_bitvec_get_set;
          Alcotest.test_case "bounds" `Quick test_bitvec_bounds;
          Alcotest.test_case "string roundtrip" `Quick test_bitvec_string_roundtrip;
          Alcotest.test_case "fill" `Quick test_bitvec_fill;
          Alcotest.test_case "iter_set" `Quick test_bitvec_iter_set;
          Alcotest.test_case "canonical hash and equality" `Quick
            test_bitvec_canon_matches_inline;
        ]
        @ Util.qcheck_cases [ prop_bitvec_ops; prop_bitvec_inplace ] );
      ( "truth",
        [
          Alcotest.test_case "var" `Quick test_truth_var;
          Alcotest.test_case "var above word" `Quick test_truth_var_large;
          Alcotest.test_case "cofactor above word" `Quick test_truth_cofactor_word_boundary;
          Alcotest.test_case "hex" `Quick test_truth_hex;
        ]
        @ Util.qcheck_cases
            [ prop_shannon 4; prop_shannon 8; prop_support; prop_shrink_expand ] );
      ( "cube-cover",
        [
          Alcotest.test_case "cube basics" `Quick test_cube_basics;
          Alcotest.test_case "cube contradiction" `Quick test_cube_contradiction;
          Alcotest.test_case "cube subsumes" `Quick test_cube_subsumes;
          Alcotest.test_case "cover truth" `Quick test_cover_truth;
          Alcotest.test_case "signature eval" `Quick test_cover_eval_sigs;
        ] );
      ( "isop-espresso",
        [
          Alcotest.test_case "espresso known" `Quick test_espresso_known;
          Alcotest.test_case "espresso dc" `Quick test_espresso_with_dc;
        ]
        @ Util.qcheck_cases
            [
              prop_isop_interval 4;
              prop_isop_interval 7;
              prop_isop_irredundant;
              prop_espresso_interval;
            ] );
      ( "factor",
        [ Alcotest.test_case "shares literals" `Quick test_factor_shares_literals ]
        @ Util.qcheck_cases [ prop_factor_correct ] );
    ]
