module Bitvec = Logic.Bitvec
module Graph = Aig.Graph

let masks g ~sigs =
  let n = Graph.num_nodes g in
  let len = if n = 0 then 0 else Bitvec.length sigs.(0) in
  let obs = Array.init n (fun _ -> Bitvec.create len) in
  (* PO drivers are fully observable. *)
  Graph.iter_pos g (fun _ l -> Bitvec.fill obs.(Graph.node_of l) true);
  (* Reverse sweep: through an AND [z = a & b], a flip of [a] reaches [z]
     exactly when [b] is 1 (after edge phase). *)
  for id = n - 1 downto 1 do
    if Graph.is_and g id then begin
      let propagate fanin other =
        let child = Graph.node_of fanin in
        let ow = Bitvec.unsafe_words obs.(child)
        and zw = Bitvec.unsafe_words obs.(id)
        and vw = Bitvec.unsafe_words sigs.(Graph.node_of other) in
        let mask = if Graph.is_compl other then Bitvec.word_mask else 0 in
        for i = 0 to Array.length ow - 1 do
          ow.(i) <- ow.(i) lor (zw.(i) land (vw.(i) lxor mask))
        done;
        Bitvec.mask_tail obs.(child)
      in
      let f0 = Graph.fanin0 g id and f1 = Graph.fanin1 g id in
      propagate f0 f1;
      propagate f1 f0
    end
  done;
  obs
