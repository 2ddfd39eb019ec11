(* Shared helpers for the test-suite. *)

module Graph = Aig.Graph

(* Deterministic random AIG: [nands] AND attempts over [npis] inputs. *)
let random_graph rng ~npis ~nands =
  let g = Graph.create ~name:"random" () in
  let lits = ref [] in
  for _ = 1 to npis do
    lits := Graph.add_pi g :: !lits
  done;
  let pool = ref (Array.of_list !lits) in
  for _ = 1 to nands do
    let pick () =
      let l = !pool.(Logic.Rng.int rng (Array.length !pool)) in
      if Logic.Rng.bool rng then Graph.lit_not l else l
    in
    let l = Graph.and_ g (pick ()) (pick ()) in
    pool := Array.append !pool [| l |]
  done;
  (* A handful of POs over the most recent signals. *)
  let n = Array.length !pool in
  let npos = min 4 n in
  for i = 0 to npos - 1 do
    let l = !pool.(n - 1 - i) in
    ignore (Graph.add_po g (if Logic.Rng.bool rng then Graph.lit_not l else l))
  done;
  g

(* Reference evaluator: direct recursion, no word-parallel tricks. *)
let eval_naive g (inputs : bool array) =
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
  Array.init (Graph.num_pos g) (fun i ->
      let l = Graph.po_lit g i in
      node (Graph.node_of l) <> Graph.is_compl l)

let bools_of_int v width = Array.init width (fun i -> (v lsr i) land 1 = 1)

let int_of_bools bits =
  Array.to_list bits |> List.rev
  |> List.fold_left (fun acc b -> (2 * acc) + if b then 1 else 0) 0

(* Functional equivalence by exhaustive naive evaluation (small PI counts). *)
let equivalent g1 g2 =
  let npis = Graph.num_pis g1 in
  assert (npis <= 16);
  Graph.num_pis g2 = npis
  && Graph.num_pos g2 = Graph.num_pos g1
  &&
  let ok = ref true in
  for m = 0 to (1 lsl npis) - 1 do
    let inputs = bools_of_int m npis in
    if eval_naive g1 inputs <> eval_naive g2 inputs then ok := false
  done;
  !ok

(* Check a circuit against an integer-level specification on random rounds:
   [spec] maps PI bits to expected PO bits. *)
let check_spec ?(rounds = 256) ~seed g spec =
  let rng = Logic.Rng.create seed in
  let npis = Graph.num_pis g in
  let patterns = Sim.Patterns.random rng ~npis ~len:rounds in
  let pos = Sim.Engine.simulate_pos g patterns in
  for m = 0 to rounds - 1 do
    let inputs = Array.init npis (fun i -> Logic.Bitvec.get patterns.(i) m) in
    let expected = spec inputs in
    let actual = Array.init (Graph.num_pos g) (fun o -> Logic.Bitvec.get pos.(o) m) in
    if expected <> actual then
      Alcotest.failf "round %d: inputs %s expected %s got %s" m
        (String.concat "" (List.map (fun b -> if b then "1" else "0") (Array.to_list inputs)))
        (String.concat "" (List.map (fun b -> if b then "1" else "0") (Array.to_list expected)))
        (String.concat "" (List.map (fun b -> if b then "1" else "0") (Array.to_list actual)))
  done

let qcheck_cases tests = List.map QCheck_alcotest.to_alcotest tests

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path text = Out_channel.with_open_bin path (fun oc -> output_string oc text)

(* [sub] occurs somewhere in [s]. *)
let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* Pool size of the parallel side of determinism checks: ALSRAC_TEST_JOBS
   when it names at least 2 lanes, 4 otherwise. *)
let test_jobs =
  match Sys.getenv_opt "ALSRAC_TEST_JOBS" with
  | Some s -> ( match int_of_string_opt s with Some n when n >= 2 -> n | _ -> 4)
  | None -> 4

(* ---------- File corruption (journal-recovery tests) ----------

   The torn or bit-rotted files an atomic writer never produces, written
   deliberately without it. *)

(* Truncate a file in place to its first [keep] bytes (clamped). *)
let truncate_file path ~keep =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let keep = max 0 (min keep len) in
  let contents = really_input_string ic keep in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* XOR one byte of the file at offset [pos mod size]; fails on an empty
   file. *)
let corrupt_byte path ~pos =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let contents = Bytes.of_string (really_input_string ic len) in
  close_in ic;
  if len = 0 then failwith "corrupt_byte: empty file";
  let pos = pos mod len in
  Bytes.set contents pos (Char.chr (Char.code (Bytes.get contents pos) lxor 0x2a));
  let oc = open_out_bin path in
  output_bytes oc contents;
  close_out oc
