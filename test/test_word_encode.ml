(* Word-level construction helpers and encoder blocks. *)

module Graph = Aig.Graph
module Word = Circuits.Word
module Encode = Circuits.Encode

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let eval_word g word inputs =
  (* Evaluate an array of literals under a PI assignment. *)
  let n = Graph.num_nodes g in
  let values = Array.make n None in
  let rec node id =
    match values.(id) with
    | Some v -> v
    | None ->
        let v =
          if Graph.is_const id then false
          else if Graph.is_pi g id then inputs.(Graph.pi_index g id)
          else
            let lit l = node (Graph.node_of l) <> Graph.is_compl l in
            lit (Graph.fanin0 g id) && lit (Graph.fanin1 g id)
        in
        values.(id) <- Some v;
        v
  in
  let v = ref 0 in
  Array.iteri
    (fun i l -> if node (Graph.node_of l) <> Graph.is_compl l then v := !v lor (1 lsl i))
    word;
  !v

let test_const_word () =
  let w = Word.const_word 0b1010 ~width:6 in
  check_int "bit1" Graph.const1 w.(1);
  check_int "bit0" Graph.const0 w.(0);
  check_int "bit4" Graph.const0 w.(4)

let test_subtract_negate () =
  let g = Graph.create () in
  let a = Word.input_word g "a" 6 in
  let b = Word.input_word g "b" 6 in
  let diff, _ = Word.subtract g a b in
  let neg = Word.negate g a in
  for trial = 0 to 200 do
    let x = (trial * 37) land 63 and y = (trial * 53) land 63 in
    let inputs = Array.append (Util.bools_of_int x 6) (Util.bools_of_int y 6) in
    check_int "a-b mod 64" ((x - y) land 63) (eval_word g diff inputs);
    check_int "-a mod 64" (-x land 63) (eval_word g neg inputs)
  done

let test_comparisons () =
  let g = Graph.create () in
  let a = Word.input_word g "a" 5 in
  let b = Word.input_word g "b" 5 in
  let eq = Word.equal g a b in
  let lt = Word.less_unsigned g a b in
  for x = 0 to 31 do
    for y = 0 to 31 do
      let inputs = Array.append (Util.bools_of_int x 5) (Util.bools_of_int y 5) in
      check "eq" ((x = y)) (eval_word g [| eq |] inputs = 1);
      check "lt" ((x < y)) (eval_word g [| lt |] inputs = 1)
    done
  done

let test_shifts () =
  let g = Graph.create () in
  let x = Word.input_word g "x" 8 in
  let amount = Word.input_word g "s" 3 in
  let left = Word.shift_left g x ~amount in
  let right = Word.shift_right g x ~amount in
  for trial = 0 to 300 do
    let v = (trial * 41) land 255 and s = trial land 7 in
    let inputs = Array.append (Util.bools_of_int v 8) (Util.bools_of_int s 3) in
    check_int "shl" ((v lsl s) land 255) (eval_word g left inputs);
    check_int "shr" (v lsr s) (eval_word g right inputs)
  done

let test_mux_word () =
  let g = Graph.create () in
  let a = Word.input_word g "a" 4 in
  let b = Word.input_word g "b" 4 in
  let sel = Graph.add_pi ~name:"sel" g in
  let m = Word.mux_word g ~sel ~t:a ~e:b in
  for trial = 0 to 100 do
    let x = trial land 15 and y = (trial lsr 4) land 15 in
    let s = trial land 1 = 1 in
    let inputs = Array.concat [ Util.bools_of_int x 4; Util.bools_of_int y 4; [| s |] ] in
    check_int "mux" (if s then x else y) (eval_word g m inputs)
  done

let test_parity_resize () =
  let g = Graph.create () in
  let x = Word.input_word g "x" 7 in
  let p = Word.parity g x in
  for v = 0 to 127 do
    let inputs = Util.bools_of_int v 7 in
    let expected =
      let rec pop n = if n = 0 then 0 else (n land 1) + pop (n lsr 1) in
      pop v mod 2 = 1
    in
    check "parity" expected (eval_word g [| p |] inputs = 1)
  done;
  let r = Word.resize x 10 in
  check_int "resize pads" 10 (Array.length r);
  check_int "pad is const0" Graph.const0 r.(9)

(* ---------- Encode ---------- *)

let test_bits_for () =
  check_int "1" 0 (Encode.bits_for 1);
  check_int "2" 1 (Encode.bits_for 2);
  check_int "3" 2 (Encode.bits_for 3);
  check_int "256" 8 (Encode.bits_for 256);
  check_int "257" 9 (Encode.bits_for 257)

let test_one_hot_first_last () =
  let g = Graph.create () in
  let x = Word.input_word g "x" 6 in
  let first = Encode.one_hot_first g x in
  let last = Encode.one_hot_last g x in
  for v = 0 to 63 do
    let inputs = Util.bools_of_int v 6 in
    let f = eval_word g first inputs and l = eval_word g last inputs in
    if v = 0 then begin
      check_int "first none" 0 f;
      check_int "last none" 0 l
    end
    else begin
      check_int "first = lowest bit" (v land -v) f;
      let rec high b = if b >= v land lnot (b - 1) && b land v <> 0 then b else high (b lsr 1) in
      ignore high;
      let rec highest i = if (v lsr i) land 1 = 1 then 1 lsl i else highest (i - 1) in
      check_int "last = highest bit" (highest 5) l
    end
  done

let test_binary_of_one_hot () =
  let g = Graph.create () in
  let x = Word.input_word g "x" 8 in
  let sel = Encode.one_hot_first g x in
  let idx = Encode.binary_of_one_hot g sel in
  for v = 1 to 255 do
    let inputs = Util.bools_of_int v 8 in
    let rec lowest i = if (v lsr i) land 1 = 1 then i else lowest (i + 1) in
    check_int "index of first" (lowest 0) (eval_word g idx inputs)
  done

let test_popcount_circuit () =
  let g = Graph.create () in
  let x = Word.input_word g "x" 9 in
  let count = Encode.popcount g x in
  for v = 0 to 511 do
    let inputs = Util.bools_of_int v 9 in
    let rec pop n = if n = 0 then 0 else (n land 1) + pop (n lsr 1) in
    check_int "popcount" (pop v) (eval_word g count inputs)
  done

let test_decode_one_hot () =
  let g = Graph.create () in
  let sel = Word.input_word g "s" 3 in
  let out = Encode.decode g sel in
  check_int "8 outputs" 8 (Array.length out);
  for v = 0 to 7 do
    let inputs = Util.bools_of_int v 3 in
    check_int "one hot" (1 lsl v) (eval_word g out inputs)
  done

(* ---------- New engine features ---------- *)

let test_worst_case_ed () =
  let golden = [| Logic.Bitvec.of_string "10"; Logic.Bitvec.of_string "01" |] in
  (* values 1, 2 *)
  let approx = [| Logic.Bitvec.of_string "00"; Logic.Bitvec.of_string "10" |] in
  (* values 2, 0 *)
  check_int "worst |d|" 2 (int_of_float (Errest.Metrics.measure Maxed ~golden ~approx))

let prop_prepared_equals_measure =
  QCheck.Test.make ~name:"prepared measurement equals direct" ~count:50
    QCheck.(make Gen.(int_range 0 100000))
    (fun seed ->
      let rng = Logic.Rng.create seed in
      let len = 100 in
      let mk () = Array.init 5 (fun _ -> Logic.Bitvec.random rng len) in
      let golden = mk () and approx = mk () in
      List.for_all
        (fun kind ->
          let p = Errest.Metrics.prepare kind ~golden in
          Float.abs
            (Errest.Metrics.measure_prepared p ~approx
            -. Errest.Metrics.measure kind ~golden ~approx)
          < 1e-12)
        [ Errest.Metrics.Er; Errest.Metrics.Nmed; Errest.Metrics.Mred ])

let test_flow_with_input_distribution () =
  (* Skewed inputs: the flow respects the distribution (deterministic run,
     constraint honoured on its sample). *)
  let g = Circuits.Multipliers.wallace ~width:4 in
  let npis = Graph.num_pis g in
  let config =
    { (Core.Config.default ~metric:Errest.Metrics.Er ~threshold:0.02) with
      Core.Config.eval_rounds = 2048;
      max_iters = 60;
      input_probs = Some (Array.make npis 0.9);
    }
  in
  let approx, report = Core.Flow.run ~config g in
  check "constraint respected on sample" true
    (report.Core.Flow.final_est_error <= 0.02 +. 1e-9);
  check "interface preserved" true (Graph.num_pis approx = npis)

let () =
  Alcotest.run "word-encode"
    [
      ( "word",
        [
          Alcotest.test_case "const word" `Quick test_const_word;
          Alcotest.test_case "subtract/negate" `Quick test_subtract_negate;
          Alcotest.test_case "comparisons" `Quick test_comparisons;
          Alcotest.test_case "shifts" `Quick test_shifts;
          Alcotest.test_case "mux word" `Quick test_mux_word;
          Alcotest.test_case "parity/resize" `Quick test_parity_resize;
        ] );
      ( "encode",
        [
          Alcotest.test_case "bits_for" `Quick test_bits_for;
          Alcotest.test_case "one-hot first/last" `Quick test_one_hot_first_last;
          Alcotest.test_case "binary of one-hot" `Quick test_binary_of_one_hot;
          Alcotest.test_case "popcount" `Quick test_popcount_circuit;
          Alcotest.test_case "decode" `Quick test_decode_one_hot;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "worst-case ED" `Quick test_worst_case_ed;
          Alcotest.test_case "flow with input distribution" `Quick
            test_flow_with_input_distribution;
        ]
        @ Util.qcheck_cases [ prop_prepared_equals_measure ] );
    ]
