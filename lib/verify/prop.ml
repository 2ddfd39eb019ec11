module Graph = Aig.Graph

type failure = {
  case_seed : int;
  message : string;
  original : Graph.t;
  shrunk : Graph.t;
  shrink_steps : int;
  dump : string option;
}

type outcome = Passed of int | Failed of failure

(* Copy of [g] keeping only the output at index [keep] (PIs preserved). *)
let restrict_po g keep =
  let g' = Graph.create ~name:(Graph.name g) () in
  let map = Array.make (Graph.num_nodes g) Graph.const0 in
  for i = 0 to Graph.num_pis g - 1 do
    map.(Graph.pi_node g i) <- Graph.add_pi ~name:(Graph.pi_name g i) g'
  done;
  let lit l = Graph.lit_not_cond map.(Graph.node_of l) (Graph.is_compl l) in
  Graph.iter_ands g (fun id ->
      map.(id) <- Graph.and_ g' (lit (Graph.fanin0 g id)) (lit (Graph.fanin1 g id)));
  Graph.iter_pos g (fun o l ->
      if o = keep then ignore (Graph.add_po ~name:(Graph.po_name g o) g' (lit l)));
  Graph.compact g'

let replace_node g id l =
  Graph.compact
    (Graph.rebuild ~replace:(fun i -> if i = id then Some (Graph.Replace_lit l) else None) g)

(* Greedy shrinking: accept the first strictly smaller variant that still
   fails, restart from it, stop when a full pass yields nothing (or the
   attempt budget runs out). *)
let shrink fails g0 msg0 =
  let cur = ref g0 and msg = ref msg0 and steps = ref 0 in
  let budget = ref 4000 in
  let smaller c =
    Graph.num_ands c < Graph.num_ands !cur || Graph.num_pos c < Graph.num_pos !cur
  in
  let accept c m =
    cur := c;
    msg := m;
    incr steps
  in
  let try_candidate c =
    decr budget;
    if smaller c then
      match fails c with
      | Some m ->
          accept c m;
          true
      | None -> false
    else false
  in
  let improved = ref true in
  while !improved && !budget > 0 do
    improved := false;
    (* 1. Single-output restriction. *)
    if Graph.num_pos !cur > 1 then begin
      let npos = Graph.num_pos !cur in
      let o = ref 0 in
      while (not !improved) && !o < npos && !budget > 0 do
        if try_candidate (restrict_po !cur !o) then improved := true;
        incr o
      done
    end;
    (* 2. Collapse a gate onto a fanin or a constant, newest first. *)
    if not !improved then begin
      let ands = ref [] in
      Graph.iter_ands !cur (fun id -> ands := id :: !ands);
      let rec over_nodes = function
        | [] -> ()
        | id :: rest when !budget > 0 ->
            let g = !cur in
            let candidates =
              [ Graph.fanin0 g id; Graph.fanin1 g id; Graph.const0 ]
            in
            if List.exists (fun l -> try_candidate (replace_node g id l)) candidates
            then improved := true
            else over_nodes rest
        | _ -> ()
      in
      over_nodes !ands
    end
  done;
  (!cur, !msg, !steps)

let sanitize name =
  String.map (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c | _ -> '-')
    name

let dump_counterexample ~dump_dir ~name ~case_seed shrunk =
  match dump_dir with
  | None -> None
  | Some dir -> (
      try
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        let path =
          Filename.concat dir (Printf.sprintf "%s-seed%d.aag" (sanitize name) case_seed)
        in
        Circuit_io.Aiger.write_graph path shrunk;
        Some path
      with _ -> None)

let check ?(profile = Gen.default) ?dump_dir ~name ~seed ~count prop =
  let dump_dir =
    match dump_dir with Some d -> Some d | None -> Sys.getenv_opt "ALSRAC_PROP_DUMP"
  in
  let prop g =
    try prop g
    with e -> Error (Printf.sprintf "exception: %s" (Printexc.to_string e))
  in
  let fails g = match prop g with Error m -> Some m | Ok () -> None in
  let rec loop i =
    if i >= count then Passed count
    else begin
      let case_seed = seed + i in
      let g = Gen.random ~profile case_seed in
      match fails g with
      | None -> loop (i + 1)
      | Some msg ->
          let shrunk, message, shrink_steps = shrink fails g msg in
          let dump = dump_counterexample ~dump_dir ~name ~case_seed shrunk in
          Failed { case_seed; message; original = g; shrunk; shrink_steps; dump }
    end
  in
  loop 0

let failure_to_string ~name f =
  Printf.sprintf
    "property %s failed at seed %d: %s (shrunk %d->%d ands, %d->%d pos in %d steps%s)"
    name f.case_seed f.message (Graph.num_ands f.original) (Graph.num_ands f.shrunk)
    (Graph.num_pos f.original) (Graph.num_pos f.shrunk) f.shrink_steps
    (match f.dump with Some p -> ", dumped to " ^ p | None -> "")

let check_exn ?profile ?dump_dir ~name ~seed ~count prop =
  match check ?profile ?dump_dir ~name ~seed ~count prop with
  | Passed _ -> ()
  | Failed f -> failwith (failure_to_string ~name f)

(* ---------- Generic values ---------- *)

(* Same greedy discipline as the circuit shrinker: adopt the first
   proposed variant that still fails, restart from it, stop when a full
   proposal list passes (or the budget runs out).  Termination is the
   shrinker's contract (variants should be strictly "smaller"); the
   budget bounds a cyclic shrinker regardless. *)
let shrink_value fails shrink v0 msg0 =
  let cur = ref v0 and msg = ref msg0 and steps = ref 0 in
  let budget = ref 2000 in
  let improved = ref true in
  while !improved && !budget > 0 do
    improved := false;
    let rec try_variants = function
      | [] -> ()
      | v :: rest when !budget > 0 -> (
          decr budget;
          match fails v with
          | Some m ->
              cur := v;
              msg := m;
              incr steps;
              improved := true
          | None -> try_variants rest)
      | _ -> ()
    in
    try_variants (shrink !cur)
  done;
  (!cur, !msg, !steps)

let check_value_exn ~name ~seed ~count ~gen ~shrink ~repr prop =
  let prop v =
    try prop v
    with e -> Error (Printf.sprintf "exception: %s" (Printexc.to_string e))
  in
  let fails v = match prop v with Error m -> Some m | Ok () -> None in
  let rec loop i =
    if i < count then begin
      let case_seed = seed + i in
      let v = gen case_seed in
      match fails v with
      | None -> loop (i + 1)
      | Some msg ->
          let shrunk, message, steps = shrink_value fails shrink v msg in
          failwith
            (Printf.sprintf "property %s failed at seed %d: %s (shrunk in %d steps: %s)"
               name case_seed message steps (repr shrunk))
    end
  in
  loop 0
