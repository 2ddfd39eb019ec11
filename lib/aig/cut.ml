type t = { leaves : int array; sign : int }

let signature leaves =
  Array.fold_left (fun acc id -> acc lor (1 lsl (id mod 62))) 0 leaves

let trivial id = { leaves = [| id |]; sign = signature [| id |] }

let size c = Array.length c.leaves

let mem id c = Array.exists (fun x -> x = id) c.leaves

let subset a b =
  a.sign land lnot b.sign = 0 && Array.for_all (fun id -> mem id b) a.leaves

(* Merge two sorted leaf arrays, bailing out past [k] distinct leaves. *)
let merge ~k a b =
  let la = a.leaves and lb = b.leaves in
  let na = Array.length la and nb = Array.length lb in
  let buf = Array.make k 0 in
  let rec go i j n =
    if i = na && j = nb then Some n
    else if n = k then None
    else if i = na then begin
      buf.(n) <- lb.(j);
      go i (j + 1) (n + 1)
    end
    else if j = nb then begin
      buf.(n) <- la.(i);
      go (i + 1) j (n + 1)
    end
    else if la.(i) = lb.(j) then begin
      buf.(n) <- la.(i);
      go (i + 1) (j + 1) (n + 1)
    end
    else if la.(i) < lb.(j) then begin
      buf.(n) <- la.(i);
      go (i + 1) j (n + 1)
    end
    else begin
      buf.(n) <- lb.(j);
      go i (j + 1) (n + 1)
    end
  in
  match go 0 0 0 with
  | None -> None
  | Some n ->
      let leaves = Array.sub buf 0 n in
      Some { leaves; sign = signature leaves }

let insert_pruned max_cuts cuts cut =
  if List.exists (fun c -> subset c cut) cuts then cuts
  else begin
    let cuts = List.filter (fun c -> not (subset cut c)) cuts in
    let cuts = cuts @ [ cut ] in
    let sorted = List.stable_sort (fun a b -> compare (size a) (size b)) cuts in
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | c :: rest -> c :: take (n - 1) rest
    in
    take max_cuts sorted
  end

let enumerate g ~k ?(max_cuts = 8) () =
  let n = Graph.num_nodes g in
  let all = Array.make n [] in
  all.(0) <- [ { leaves = [||]; sign = 0 } ];
  for i = 0 to Graph.num_pis g - 1 do
    let id = Graph.pi_node g i in
    all.(id) <- [ trivial id ]
  done;
  Graph.iter_ands g (fun id ->
      let c0 = all.(Graph.node_of (Graph.fanin0 g id)) in
      let c1 = all.(Graph.node_of (Graph.fanin1 g id)) in
      let cuts = ref [] in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              match merge ~k a b with
              | Some c -> cuts := insert_pruned max_cuts !cuts c
              | None -> ())
            c1)
        c0;
      (* The trivial cut must survive pruning so fanouts can merge on it. *)
      all.(id) <- insert_pruned (max_cuts + 1) !cuts (trivial id));
  all

let truth g ~root ~leaves =
  let nvars = Array.length leaves in
  if nvars > Logic.Truth.max_vars then failwith "Cut.truth: too many leaves";
  let memo = Hashtbl.create 64 in
  Array.iteri (fun i id -> Hashtbl.replace memo id (Logic.Truth.var nvars i)) leaves;
  let rec eval id =
    match Hashtbl.find_opt memo id with
    | Some tt -> tt
    | None ->
        if Graph.is_const id then Logic.Truth.const0 nvars
        else if Graph.is_pi g id then
          failwith "Cut.truth: leaves do not form a cut (reached a PI)"
        else begin
          let eval_lit l =
            let tt = eval (Graph.node_of l) in
            if Graph.is_compl l then Logic.Truth.bnot tt else tt
          in
          let tt = Logic.Truth.band (eval_lit (Graph.fanin0 g id)) (eval_lit (Graph.fanin1 g id)) in
          Hashtbl.replace memo id tt;
          tt
        end
  in
  eval root
