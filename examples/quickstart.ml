(* Quickstart: the paper's worked example (Fig. 1, Tables I/II, Examples
   1-4) reproduced end-to-end on the real library API.

   Run with: dune exec examples/quickstart.exe *)

module Graph = Aig.Graph
module Bitvec = Logic.Bitvec

(* Fig. 1a: a 4-input circuit with internal nodes u, z, w and target node
   v = z XOR w (node functions reconstructed from Table I). *)
let build_figure_1a () =
  let g = Graph.create ~name:"fig1a" () in
  let a = Graph.add_pi ~name:"a" g in
  let b = Graph.add_pi ~name:"b" g in
  let c = Graph.add_pi ~name:"c" g in
  let d = Graph.add_pi ~name:"d" g in
  let u = Aig.Builder.or_ g c d in
  let z = Graph.and_ g (Aig.Builder.or_ g a b) (Graph.lit_not (Graph.and_ g b c)) in
  let w = Graph.lit_not c in
  let v = Aig.Builder.xor g z w in
  ignore (Graph.add_po ~name:"v" g v);
  (g, u, z, v)

let () =
  let g, u, z, v = build_figure_1a () in
  Printf.printf "== Fig. 1a circuit ==\n%s\n\n" (Format.asprintf "%a" Graph.pp_stats g);

  (* Table I: exhaustive node values. *)
  let pats = Sim.Patterns.exhaustive ~npis:4 in
  let sigs = Sim.Engine.simulate g pats in
  let value_of l m = Bitvec.get (Sim.Engine.lit_value sigs l) m in
  Printf.printf "== Table I (node values under all PI patterns) ==\n";
  Printf.printf "abcd | u z v\n";
  for m = 0 to 15 do
    (* PI i of the pattern set is bit i of m; print as the paper's a..d. *)
    Printf.printf "%d%d%d%d | %d %d %d\n" (m land 1) ((m lsr 1) land 1)
      ((m lsr 2) land 1) ((m lsr 3) land 1)
      (Bool.to_int (value_of u m)) (Bool.to_int (value_of z m))
      (Bool.to_int (value_of v m))
  done;

  (* Example 2: with ALL 16 patterns, {u, z} cannot resubstitute v. *)
  let scan_with rounds_sigs rounds =
    (* Care.scan reads plain node signatures; fold the literal phases in. *)
    let scratch = Array.map Bitvec.copy rounds_sigs in
    let put l =
      let id = Graph.node_of l in
      scratch.(id) <- Sim.Engine.lit_value rounds_sigs l;
      id
    in
    let ui = put u and zi = put z and vi = put v in
    Core.Care.scan ~sigs:scratch ~node:vi ~divisors:[| ui; zi |] ~rounds ()
  in
  let full = scan_with sigs 16 in
  Printf.printf "\n== Example 2: accurate resubstitution of v on {u, z}? %s ==\n"
    (if Option.is_some full then "feasible" else "infeasible (as the paper shows)");

  (* Example 1/3: simulate only the 5 selected PI patterns
     abcd = {0000, 0010, 0011, 0100, 1000}. *)
  let selected = [ 0b0000; 0b0100; 0b1100; 0b0010; 0b0001 ] in
  (* (bit order: our PI i is bit i, the paper lists abcd left to right) *)
  let five =
    Array.init 4 (fun i ->
        Bitvec.init (List.length selected) (fun r -> (List.nth selected r lsr i) land 1 = 1))
  in
  let sigs5 = Sim.Engine.simulate g five in
  let care = scan_with sigs5 5 in
  Printf.printf "\n== Example 3: with 5 random patterns the divisor set {u, z} is %s ==\n"
    (if Option.is_some care then "FEASIBLE" else "infeasible");
  let care = Option.get care in
  Printf.printf "approximate care tuples at {u, z}: ";
  List.iter
    (fun t -> Printf.printf "%d%d " (t land 1) ((t lsr 1) land 1))
    (Core.Care.care_tuples care);
  Printf.printf " (Table II: 00, 01, 10 observed; 11 is a don't-care)\n";

  (* Example 4: derive the ISOP and apply the LAC. *)
  let cover = Core.Resub.derive care in
  let expr = Core.Resub.expr_of_cover cover in
  Printf.printf "\n== Example 4: resubstitution function ==\nv_hat(u, z) = %s\n"
    (Format.asprintf "%a" Logic.Factor.pp expr);
  (* The expression is over the u/z SIGNALS; Replace_expr binds plain nodes,
     so fold the edge phases of the u/z literals into the expression. *)
  let divisors = [| u; z |] in
  let rec phase_fix = function
    | Logic.Factor.Const b -> Logic.Factor.Const b
    | Logic.Factor.Lit (i, ph) ->
        Logic.Factor.Lit (i, if Graph.is_compl divisors.(i) then not ph else ph)
    | Logic.Factor.And es -> Logic.Factor.And (List.map phase_fix es)
    | Logic.Factor.Or es -> Logic.Factor.Or (List.map phase_fix es)
  in
  let target = Graph.node_of v in
  let approx =
    Graph.rebuild
      ~replace:(fun id ->
        if id = target then
          Some
            (Graph.Replace_expr
               (phase_fix expr, Array.map Graph.node_of divisors))
        else None)
      g
  in
  (* The PO literal of v is complemented in our AIG encoding; the paper's
     example works on the positive function, so flip if needed. *)
  let approx =
    if Graph.is_compl v then begin
      Graph.set_po approx 0 (Graph.lit_not (Graph.po_lit approx 0));
      Graph.compact approx
    end
    else approx
  in
  Printf.printf "\n== Fig. 1b: circuit after the LAC ==\n%s\n"
    (Format.asprintf "%a" Graph.pp_stats approx);
  let er = Errest.Metrics.evaluate Errest.Metrics.Er ~original:g ~approx in
  Printf.printf "error rate of the approximation: %.2f%% (paper: 18.75%%)\n" (100.0 *. er);

  (* And the whole thing again through the top-level flow API. *)
  let config =
    { (Core.Config.default ~metric:Errest.Metrics.Er ~threshold:0.19) with
      Core.Config.eval_rounds = 16 }
  in
  let auto, report = Core.Flow.run ~config g in
  Printf.printf
    "\n== Core.Flow.run at ER <= 19%% ==\nands %d -> %d, %d LACs, measured ER %.2f%%\n"
    report.Core.Flow.input_ands report.Core.Flow.output_ands report.Core.Flow.applied
    (100.0 *. Errest.Metrics.evaluate Errest.Metrics.Er ~original:g ~approx:auto)
