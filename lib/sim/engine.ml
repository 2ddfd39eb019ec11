module Bitvec = Logic.Bitvec
module Graph = Aig.Graph

let word_mask = Bitvec.word_mask

(* dst := (a ^ ma) & (b ^ mb) word-wise, where ma/mb are phase masks. *)
let and_words dst a b ma mb =
  let dw = Bitvec.unsafe_words dst
  and aw = Bitvec.unsafe_words a
  and bw = Bitvec.unsafe_words b in
  for i = 0 to Array.length dw - 1 do
    dw.(i) <- (aw.(i) lxor ma) land (bw.(i) lxor mb)
  done;
  Bitvec.mask_tail dst

let phase_mask l = if Graph.is_compl l then word_mask else 0

(* Word-range variant for sharded simulation: only words [lo, hi) are
   written, and the tail invariant is NOT re-established (junk can only
   appear in the final word's padding bits and bitwise ops are bit-local, so
   one mask pass at the end of the sweep suffices). *)
let and_words_range dst a b ma mb lo hi =
  let dw = Bitvec.unsafe_words dst
  and aw = Bitvec.unsafe_words a
  and bw = Bitvec.unsafe_words b in
  for i = lo to hi - 1 do
    dw.(i) <- (aw.(i) lxor ma) land (bw.(i) lxor mb)
  done

(* Shard the pattern words across the pool: every shard runs the full
   topological sweep over its own word slice.  Word columns are independent,
   shards write disjoint slices of the shared signature arrays, and each
   word's value is computed by the exact same operations as the sequential
   sweep — the result is bit-identical at any pool size. *)
let simulate_sharded pool g sigs nwords =
  let chunk_size = max 8 ((nwords + 63) / 64) in
  Parallel.Chunk.iter ~pool ~chunk_size ~n:nwords (fun lo hi ->
      Graph.iter_ands g (fun id ->
          let f0 = Graph.fanin0 g id and f1 = Graph.fanin1 g id in
          and_words_range sigs.(id)
            sigs.(Graph.node_of f0)
            sigs.(Graph.node_of f1)
            (phase_mask f0) (phase_mask f1) lo hi));
  Graph.iter_ands g (fun id -> Bitvec.mask_tail sigs.(id))

let simulate ?pool g inputs =
  if Array.length inputs <> Graph.num_pis g then
    invalid_arg "Engine.simulate: one signature per PI required";
  let len = if Array.length inputs = 0 then 0 else Bitvec.length inputs.(0) in
  Array.iter
    (fun v ->
      if Bitvec.length v <> len then invalid_arg "Engine.simulate: ragged signatures")
    inputs;
  let sigs = Array.init (Graph.num_nodes g) (fun _ -> Bitvec.create len) in
  for i = 0 to Graph.num_pis g - 1 do
    Bitvec.blit inputs.(i) sigs.(Graph.pi_node g i)
  done;
  let nwords = if len = 0 then 0 else Bitvec.num_words sigs.(0) in
  (match pool with
  | Some p when Parallel.Pool.size p > 1 && nwords > 1 -> simulate_sharded p g sigs nwords
  | _ ->
      Graph.iter_ands g (fun id ->
          let f0 = Graph.fanin0 g id and f1 = Graph.fanin1 g id in
          and_words sigs.(id)
            sigs.(Graph.node_of f0)
            sigs.(Graph.node_of f1)
            (phase_mask f0) (phase_mask f1)));
  sigs

let lit_value sigs l =
  let v = sigs.(Graph.node_of l) in
  if Graph.is_compl l then Bitvec.lognot v else Bitvec.copy v

let po_values g sigs =
  Array.init (Graph.num_pos g) (fun i -> lit_value sigs (Graph.po_lit g i))

let simulate_pos ?pool g inputs = po_values g (simulate ?pool g inputs)
