let tfi_mask g id =
  let mask = Array.make (Graph.num_nodes g) false in
  let rec mark id =
    if not mask.(id) then begin
      mask.(id) <- true;
      if Graph.is_and g id then begin
        mark (Graph.node_of (Graph.fanin0 g id));
        mark (Graph.node_of (Graph.fanin1 g id))
      end
    end
  in
  mark id;
  mask

let tfo_mask g id =
  let n = Graph.num_nodes g in
  let mask = Array.make n false in
  mask.(id) <- true;
  (* Node ids ascend topologically, so one forward sweep suffices. *)
  Graph.iter_ands g (fun i ->
      if i > id then
        if
          mask.(Graph.node_of (Graph.fanin0 g i))
          || mask.(Graph.node_of (Graph.fanin1 g i))
        then mask.(i) <- true);
  mask

let mffc g ~fanouts id =
  if not (Graph.is_and g id) then []
  else begin
    let refs = Array.copy fanouts in
    let collected = ref [] in
    let rec deref id =
      if Graph.is_and g id then begin
        collected := id :: !collected;
        let visit l =
          let child = Graph.node_of l in
          refs.(child) <- refs.(child) - 1;
          if refs.(child) = 0 then deref child
        in
        visit (Graph.fanin0 g id);
        visit (Graph.fanin1 g id)
      end
    in
    deref id;
    !collected
  end

let cone_inputs g nodes =
  let in_set = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace in_set id ()) nodes;
  let inputs = Hashtbl.create 16 in
  let order = ref [] in
  let consider l =
    let child = Graph.node_of l in
    if (not (Hashtbl.mem in_set child)) && not (Hashtbl.mem inputs child) then begin
      Hashtbl.replace inputs child ();
      order := child :: !order
    end
  in
  List.iter
    (fun id ->
      if Graph.is_and g id then begin
        consider (Graph.fanin0 g id);
        consider (Graph.fanin1 g id)
      end)
    nodes;
  List.rev !order
