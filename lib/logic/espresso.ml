let cost c = (Cover.num_cubes c, Cover.num_lits c)

let cost_le a b = cost a <= cost b

(* Smallest cube containing every ON-minterm of [f]. *)
let supercube_of_truth f =
  let n = Truth.num_vars f in
  let all = if n = 0 then 0 else (1 lsl n) - 1 in
  let pos = ref all and neg = ref all and seen = ref false in
  Truth.iter_minterms f (fun m ->
      seen := true;
      pos := !pos land m;
      neg := !neg land lnot m land all);
  if not !seen then None else Some (Cube.make ~pos:!pos ~neg:!neg)

(* EXPAND: make each cube prime by removing literals while the cube stays
   disjoint from the OFF-set; drop cubes subsumed by the expanded result. *)
let expand nvars off cubes =
  let expand_cube c =
    let rec try_vars c v =
      if v >= nvars then c
      else if Cube.has_var c v then begin
        let c' = Cube.remove_var c v in
        let hits_off =
          not (Truth.is_const0 (Truth.band (Cube.to_truth nvars c') off))
        in
        try_vars (if hits_off then c else c') (v + 1)
      end
      else try_vars c (v + 1)
    in
    try_vars c 0
  in
  let rec loop done_ todo =
    match todo with
    | [] -> List.rev done_
    | c :: rest ->
        let c' = expand_cube c in
        let not_subsumed x = not (Cube.subsumes c' x) in
        loop (c' :: List.filter not_subsumed done_) (List.filter not_subsumed rest)
  in
  loop [] cubes

(* Suffix unions of cube truths: [suffix.(i)] covers cubes [i ..]. *)
let suffix_unions nvars dc cubes =
  let arr = Array.of_list cubes in
  let n = Array.length arr in
  let suffix = Array.make (n + 1) dc in
  for i = n - 1 downto 0 do
    suffix.(i) <- Truth.bor suffix.(i + 1) (Cube.to_truth nvars arr.(i))
  done;
  (arr, suffix)

(* IRREDUNDANT: drop any cube whose minterms are covered by the rest + DC.
   Sequential semantics with running prefix / precomputed suffix unions. *)
let irredundant nvars dc cubes =
  let arr, suffix = suffix_unions nvars dc cubes in
  let kept = ref [] in
  let kept_union = ref (Truth.const0 nvars) in
  Array.iteri
    (fun i c ->
      let others = Truth.bor !kept_union suffix.(i + 1) in
      let ct = Cube.to_truth nvars c in
      if not (Truth.is_const0 (Truth.bdiff ct others)) then begin
        kept := c :: !kept;
        kept_union := Truth.bor !kept_union ct
      end)
    arr;
  List.rev !kept

(* REDUCE: shrink each cube to the supercube of the minterms only it covers
   (its essential part), opening room for the next EXPAND to move. *)
let reduce nvars dc cubes =
  let arr, suffix = suffix_unions nvars dc cubes in
  let kept = ref [] in
  let kept_union = ref (Truth.const0 nvars) in
  Array.iteri
    (fun i c ->
      let others = Truth.bor !kept_union suffix.(i + 1) in
      let essential = Truth.bdiff (Cube.to_truth nvars c) others in
      match supercube_of_truth essential with
      | None -> ()
      | Some c' ->
          kept := c' :: !kept;
          kept_union := Truth.bor !kept_union (Cube.to_truth nvars c'))
    arr;
  List.rev !kept

let minimize ~on ~dc =
  if Truth.num_vars on <> Truth.num_vars dc then
    invalid_arg "Espresso: variable count mismatch";
  if not (Truth.is_const0 (Truth.band on dc)) then
    invalid_arg "Espresso: ON and DC sets overlap";
  let nvars = Truth.num_vars on in
  let off = Truth.bnot (Truth.bor on dc) in
  let start = Isop.compute ~on ~dc in
  let step cubes = expand nvars off cubes |> irredundant nvars dc in
  let rec loop best cubes iters =
    let cubes' = step cubes in
    let candidate = Cover.make nvars cubes' in
    let best = if cost_le candidate best then candidate else best in
    if iters = 0 then best
    else begin
      let reduced = reduce nvars dc cubes' in
      if List.length reduced = List.length cubes'
         && List.for_all2 Cube.equal reduced cubes'
      then best
      else loop best reduced (iters - 1)
    end
  in
  let result = loop start start.Cover.cubes 4 in
  assert (Cover.covers result on);
  assert (Cover.within result (Truth.bor on dc));
  result
