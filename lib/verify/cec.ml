module Graph = Aig.Graph
module Bitvec = Logic.Bitvec
module Truth = Logic.Truth

type counterexample = {
  inputs : bool array;
  po : int;
  value_a : bool;
  value_b : bool;
}

type verdict = Equivalent | Inequivalent of counterexample | Undecided of string

type effort = Fast | Thorough

(* ---------- Reference evaluation (independent of Sim.Engine) ---------- *)

(* Direct memoized recursion over the graph; deliberately shares nothing
   with the word-parallel engine so counterexample validation does not trust
   the machinery under test. *)
let eval_graph g (inputs : bool array) =
  let values = Array.make (Graph.num_nodes g) None in
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
  Array.init (Graph.num_pos g) (fun o ->
      let l = Graph.po_lit g o in
      node (Graph.node_of l) <> Graph.is_compl l)

let holds a b cex =
  Array.length cex.inputs = Graph.num_pis a
  && cex.po >= 0
  && cex.po < Graph.num_pos a
  &&
  let va = (eval_graph a cex.inputs).(cex.po)
  and vb = (eval_graph b cex.inputs).(cex.po) in
  va = cex.value_a && vb = cex.value_b && va <> vb

let mk_cex a b ~inputs ~po =
  let va = (eval_graph a inputs).(po) and vb = (eval_graph b inputs).(po) in
  { inputs; po; value_a = va; value_b = vb }

(* ---------- Random / exhaustive refutation ---------- *)

exception Diff of int * int  (* po, round *)

(* First (po, round) on which the circuits disagree over a pattern set. *)
let first_diff a b pats =
  let pa = Sim.Engine.simulate_pos a pats and pb = Sim.Engine.simulate_pos b pats in
  try
    Array.iteri
      (fun o va ->
        if not (Bitvec.equal va pb.(o)) then
          Bitvec.iter_set (Bitvec.logxor va pb.(o)) (fun m -> raise (Diff (o, m))))
      pa;
    None
  with Diff (o, m) -> Some (o, m)

let cex_at a b pats (o, m) =
  let inputs = Array.map (fun p -> Bitvec.get p m) pats in
  mk_cex a b ~inputs ~po:o

(* ---------- Miter construction ---------- *)

let copy_into g pis src =
  let map = Array.make (Graph.num_nodes src) Graph.const0 in
  for i = 0 to Graph.num_pis src - 1 do
    map.(Graph.pi_node src i) <- pis.(i)
  done;
  let lit l = Graph.lit_not_cond map.(Graph.node_of l) (Graph.is_compl l) in
  Graph.iter_ands src (fun id ->
      map.(id) <- Graph.and_ g (lit (Graph.fanin0 src id)) (lit (Graph.fanin1 src id)));
  Array.init (Graph.num_pos src) (fun o -> lit (Graph.po_lit src o))

let miter a b =
  let g = Graph.create ~name:"miter" () in
  let pis =
    Array.init (Graph.num_pis a) (fun i -> Graph.add_pi ~name:(Graph.pi_name a i) g)
  in
  let pa = copy_into g pis a and pb = copy_into g pis b in
  Array.iteri
    (fun o la ->
      let lb = pb.(o) in
      let x1 = Graph.and_ g la (Graph.lit_not lb) in
      let x2 = Graph.and_ g (Graph.lit_not la) lb in
      let xor = Graph.lit_not (Graph.and_ g (Graph.lit_not x1) (Graph.lit_not x2)) in
      ignore (Graph.add_po ~name:(Printf.sprintf "neq%d" o) g xor))
    pa;
  g

(* ---------- Cut sweeping ---------- *)

(* Two nodes computing the same truth table over the identical cut leaves
   are functionally equal — an exact proof that needs no PI-support bound,
   which is what closes miters of wide circuits after local transforms. *)
let cut_sweep ~k ~max_cuts g =
  let g = Graph.compact g in
  let cuts = Aig.Cut.enumerate g ~k ~max_cuts () in
  let tbl : (string, Graph.lit) Hashtbl.t = Hashtbl.create 4096 in
  let replace : (int, Graph.replacement) Hashtbl.t = Hashtbl.create 64 in
  Graph.iter_ands g (fun id ->
      let rec try_cuts = function
        | [] -> ()
        | (cut : Aig.Cut.t) :: rest ->
            if Aig.Cut.size cut <= 1 then try_cuts rest
            else begin
              let tt = Aig.Cut.truth g ~root:id ~leaves:cut.Aig.Cut.leaves in
              (* Canonical phase: value 0 on the all-zero minterm. *)
              let phase = Truth.get tt 0 in
              let canon = if phase then Truth.bnot tt else tt in
              let key =
                String.concat ","
                  (Array.to_list (Array.map string_of_int cut.Aig.Cut.leaves))
                ^ ":" ^ Truth.to_hex canon
              in
              match Hashtbl.find_opt tbl key with
              | Some lit when Graph.node_of lit < id ->
                  Hashtbl.replace replace id
                    (Graph.Replace_lit (Graph.lit_not_cond lit phase))
              | Some _ -> try_cuts rest
              | None ->
                  Hashtbl.add tbl key (Graph.make_lit id phase);
                  try_cuts rest
            end
      in
      if not (Hashtbl.mem replace id) then try_cuts cuts.(id));
  let n = Hashtbl.length replace in
  if n = 0 then (g, 0)
  else (Graph.compact (Graph.rebuild ~replace:(Hashtbl.find_opt replace) g), n)

(* ---------- Support closure ---------- *)

(* Per-node structural PI support as bitsets over PI indices. *)
let pi_supports g =
  let npis = Graph.num_pis g in
  let sup = Array.init (Graph.num_nodes g) (fun _ -> Bitvec.create npis) in
  for i = 0 to npis - 1 do
    Bitvec.set sup.(Graph.pi_node g i) i true
  done;
  Graph.iter_ands g (fun id ->
      let s = sup.(id) in
      Bitvec.logor_inplace s sup.(Graph.node_of (Graph.fanin0 g id));
      Bitvec.logor_inplace s sup.(Graph.node_of (Graph.fanin1 g id)));
  sup

(* Exhaustive patterns over a subset of the PIs; the rest are held at 0,
   which is sound and complete for outputs whose cone touches only the
   subset. *)
let support_patterns ~npis ~support_pis =
  let n = Array.length support_pis in
  let len = 1 lsl n in
  let pats = Array.init npis (fun _ -> Bitvec.create len) in
  Array.iteri
    (fun j pi -> pats.(pi) <- Bitvec.init len (fun m -> (m lsr j) land 1 = 1))
    support_pis;
  pats

(* ---------- BDD closure ---------- *)

(* Compile one output cone to a BDD under a given variable order
   ([order.(pi_index) = level], [-1] for PIs outside the cone).  Canonicity
   decides the cone outright: the false terminal proves constant 0,
   anything else yields a satisfying input vector.  A node budget turns
   exploding cones into [`Gave_up] instead of unbounded work. *)
let bdd_compile ~limit g ~mark ~order ~nlev ~root =
  let root_id = Graph.node_of root in
  let pi_of_level = Array.make (max 1 nlev) 0 in
  Array.iteri (fun pi lev -> if lev >= 0 then pi_of_level.(lev) <- pi) order;
  (* Per-node BDDs are typically small even when their cumulative count is
     not (compressor-tree cones allocate millions of nodes while no single
     function needs more than a few thousand), so the compile loop tracks
     cone fanout counts and mark-compacts the live BDDs into a fresh
     manager whenever the budget half-fills.  Giving up happens only when
     the LIVE set itself cannot fit, or when cumulative allocation exceeds
     a fixed multiple of the budget (a work cap). *)
  let uses = Array.make (Graph.num_nodes g) 0 in
  for id = 1 to root_id do
    if mark.(id) && not (Graph.is_pi g id) then begin
      let bump f = uses.(Graph.node_of f) <- uses.(Graph.node_of f) + 1 in
      bump (Graph.fanin0 g id);
      bump (Graph.fanin1 g id)
    end
  done;
  uses.(root_id) <- uses.(root_id) + 1;
  let mgr = ref (Bdd.create ~limit ~nvars:(max 1 nlev) ()) in
  let value : (int, Bdd.node) Hashtbl.t = Hashtbl.create 1024 in
  let consume id =
    uses.(id) <- uses.(id) - 1;
    if uses.(id) = 0 then Hashtbl.remove value id
  in
  (* Work cap: the budget bounds LIVE nodes; collections let long chains of
     small functions re-use it, but total allocation across the whole
     compile stays within a fixed multiple so a hopeless cone fails in
     bounded time. *)
  let allocated = ref 0 in
  let gc () =
    allocated := !allocated + Bdd.num_nodes !mgr;
    if !allocated > 8 * limit then raise Bdd.Node_limit;
    let ids = Hashtbl.fold (fun k _ acc -> k :: acc) value [] in
    let roots = Array.of_list (List.map (Hashtbl.find value) ids) in
    let fresh = Bdd.create ~limit ~nvars:(max 1 nlev) () in
    let roots' = Bdd.copy_to ~src:!mgr ~dst:fresh roots in
    mgr := fresh;
    List.iteri (fun i id -> Hashtbl.replace value id roots'.(i)) ids;
    if Bdd.num_nodes fresh > limit / 2 then raise Bdd.Node_limit
  in
  try
    for id = 1 to root_id do
      if mark.(id) && uses.(id) > 0 then
        if Graph.is_pi g id then
          Hashtbl.replace value id (Bdd.var !mgr order.(Graph.pi_index g id))
        else begin
          let arm f =
            let n = Graph.node_of f in
            let b = if Graph.is_const n then Bdd.cfalse !mgr else Hashtbl.find value n in
            if Graph.is_compl f then Bdd.not_ !mgr b else b
          in
          let b = Bdd.and_ !mgr (arm (Graph.fanin0 g id)) (arm (Graph.fanin1 g id)) in
          consume (Graph.node_of (Graph.fanin0 g id));
          consume (Graph.node_of (Graph.fanin1 g id));
          Hashtbl.replace value id b;
          if Bdd.num_nodes !mgr > limit / 2 then gc ()
        end
    done;
    let broot = Hashtbl.find value root_id in
    let f = if Graph.is_compl root then Bdd.not_ !mgr broot else broot in
    if Bdd.is_false !mgr f then `Const0
    else begin
      let inputs = Array.make (Graph.num_pis g) false in
      List.iter (fun (lev, v) -> inputs.(pi_of_level.(lev)) <- v) (Bdd.any_sat !mgr f);
      `Sat inputs
    end
  with Bdd.Node_limit -> `Gave_up

(* Decide one output by BDD compilation, trying a small portfolio of
   static variable orders: first-appearance DFS order from the root first
   (it interleaves related inputs — e.g. the a_i/b_i pairs of an adder —
   which keeps carry-chain BDDs linear), then declaration-order stride
   interleaves for 2 and 4 operand words, then plain PI declaration order
   (better when the cone sums one contiguous input range, as compressor
   trees do). *)
let bdd_decide ~limit ~hint g ~po =
  let root = Graph.po_lit g po in
  let root_id = Graph.node_of root in
  if Graph.is_const root_id then
    if Graph.is_compl root then `Sat (Array.make (Graph.num_pis g) false) else `Const0
  else begin
    (* Cone membership by downward marking (ids are topological). *)
    let mark = Array.make (Graph.num_nodes g) false in
    mark.(root_id) <- true;
    for id = root_id downto 1 do
      if mark.(id) && not (Graph.is_pi g id) then begin
        mark.(Graph.node_of (Graph.fanin0 g id)) <- true;
        mark.(Graph.node_of (Graph.fanin1 g id)) <- true
      end
    done;
    mark.(0) <- false;
    (* DFS first-appearance order (also collects the cone's PI support). *)
    let dfs_order = Array.make (Graph.num_pis g) (-1) in
    let nlev = ref 0 in
    let seen = Array.make (Graph.num_nodes g) false in
    let stack = Stack.create () in
    Stack.push root_id stack;
    while not (Stack.is_empty stack) do
      let id = Stack.pop stack in
      if (not seen.(id)) && not (Graph.is_const id) then begin
        seen.(id) <- true;
        if Graph.is_pi g id then begin
          dfs_order.(Graph.pi_index g id) <- !nlev;
          incr nlev
        end
        else begin
          Stack.push (Graph.node_of (Graph.fanin1 g id)) stack;
          Stack.push (Graph.node_of (Graph.fanin0 g id)) stack
        end
      end
    done;
    let nlev = !nlev in
    (* Stride-interleave orders over the support in declaration order:
       split into [s] equal chunks and zip them (s_0 of each chunk, then
       s_1 of each, ...).  When the cone compares or muxes [s] operand
       words declared back to back this pairs up the same-weight bits
       a_i,b_i,...  — the order under which comparator, adder and word-mux
       BDDs stay polynomial.  [s = 1] is plain PI declaration order (best
       when the cone sums one contiguous input range). *)
    let support = ref [] in
    Array.iteri (fun pi lev -> if lev >= 0 then support := pi :: !support) dfs_order;
    let support = Array.of_list (List.rev !support) in
    let k = Array.length support in
    let stride_zip s =
      let order = Array.make (Graph.num_pis g) (-1) in
      let chunk = (k + s - 1) / s in
      let pos = ref 0 in
      for i = 0 to chunk - 1 do
        for j = 0 to s - 1 do
          let t = (j * chunk) + i in
          if t < k then begin
            order.(support.(t)) <- !pos;
            incr pos
          end
        done
      done;
      order
    in
    let candidates = [| dfs_order; stride_zip 2; stride_zip 4; stride_zip 1 |] in
    (* Sibling outputs of one circuit tend to favour the same order, so
       try the last winner ([hint]) first before sweeping the rest. *)
    let n = Array.length candidates in
    let rec try_orders = function
      | [] -> `Gave_up
      | i :: rest -> (
          match bdd_compile ~limit g ~mark ~order:candidates.(i) ~nlev ~root with
          | `Gave_up -> try_orders rest
          | decided ->
              hint := i;
              decided)
    in
    try_orders (!hint :: List.filter (fun i -> i <> !hint) (List.init n Fun.id))
  end

(* ---------- The decision portfolio ---------- *)

let default_rounds = 1024

let closed m = Graph.po_lit m

let all_pos_const0 m =
  let ok = ref true in
  for o = 0 to Graph.num_pos m - 1 do
    if closed m o <> Graph.const0 then ok := false
  done;
  !ok

let run ?(seed = 1) ?(rounds = default_rounds) ?(effort = Thorough) a b =
  if Graph.num_pis a <> Graph.num_pis b then
    invalid_arg "Verify.Cec.run: PI count mismatch";
  if Graph.num_pos a <> Graph.num_pos b then
    invalid_arg "Verify.Cec.run: PO count mismatch";
  let npis = Graph.num_pis a and npos = Graph.num_pos a in
  let exhaustive_limit, support_limit, sweep_iters, cut_k, cut_max, bdd_limit =
    match effort with
    | Fast -> (12, 12, 3, 6, 8, 50_000)
    | Thorough -> (14, 16, 10, 8, 12, 1_000_000)
  in
  if npos = 0 then Equivalent
  else if npis = 0 then begin
    (* Constant circuits: a single direct evaluation decides. *)
    let va = eval_graph a [||] and vb = eval_graph b [||] in
    match Array.to_list (Array.init npos (fun o -> (o, va.(o), vb.(o)))) with
    | _ when va = vb -> Equivalent
    | l ->
        let o, x, y = List.find (fun (_, x, y) -> x <> y) l in
        Inequivalent { inputs = [||]; po = o; value_a = x; value_b = y }
  end
  else if npis <= exhaustive_limit then begin
    let pats = Sim.Patterns.exhaustive ~npis in
    match first_diff a b pats with
    | Some d ->
        let cex = cex_at a b pats d in
        if holds a b cex then Inequivalent cex
        else Undecided "internal: refutation failed independent validation"
    | None -> Equivalent
  end
  else begin
    (* Random refutation first: cheap, and the only source of
       counterexamples for wide circuits. *)
    let rng = Logic.Rng.create seed in
    let pats = Sim.Patterns.random rng ~npis ~len:(max 62 rounds) in
    match first_diff a b pats with
    | Some d ->
        let cex = cex_at a b pats d in
        if holds a b cex then Inequivalent cex
        else Undecided "internal: refutation failed independent validation"
    | None -> (
        (* Prove: reduce the miter to constants by alternating cut sweeping
           with signature-guided fraig merging. *)
        let m = ref (Graph.compact (miter a b)) in
        let progress = ref true in
        let iters = ref 0 in
        while !progress && (not (all_pos_const0 !m)) && !iters < sweep_iters do
          incr iters;
          let g1, n1 = cut_sweep ~k:cut_k ~max_cuts:cut_max !m in
          let g2, n2 =
            Sim.Fraig.sweep ~max_support:(min 14 support_limit) ~rounds:256 ~seed g1
          in
          m := g2;
          progress := n1 + n2 > 0
        done;
        if all_pos_const0 !m then Equivalent
        else begin
          (* Per-output support closure on the reduced miter. *)
          let sup = pi_supports !m in
          let unresolved = ref [] in
          let refuted = ref None in
          (* Sibling outputs of one miter share cone structure, so once a
             couple of them have exhausted every BDD order the rest will
             too — stop burning the budget on them and report Undecided
             in bounded time. *)
          let bdd_fuel = ref 2 in
          let order_hint = ref 0 in
          for o = npos - 1 downto 0 do
            let l = closed !m o in
            if l = Graph.const0 then ()
            else begin
              let mask = sup.(Graph.node_of l) in
              let width = Bitvec.popcount mask in
              if width > support_limit then begin
                (* Too wide for truth tables: compile the cone to a BDD. *)
                if !bdd_fuel > 0 then
                  match bdd_decide ~limit:bdd_limit ~hint:order_hint !m ~po:o with
                  | `Const0 -> ()
                  | `Sat inputs ->
                      let cex = mk_cex a b ~inputs ~po:o in
                      if holds a b cex then refuted := Some cex
                      else unresolved := (o, width) :: !unresolved
                  | `Gave_up ->
                      decr bdd_fuel;
                      unresolved := (o, width) :: !unresolved
                else unresolved := (o, width) :: !unresolved
              end
              else begin
                let support_pis = ref [] in
                Bitvec.iter_set mask (fun i -> support_pis := i :: !support_pis);
                let support_pis = Array.of_list (List.rev !support_pis) in
                let spats = support_patterns ~npis ~support_pis in
                let po = (Sim.Engine.simulate_pos !m spats).(o) in
                if not (Bitvec.is_zero po) then begin
                  let exception Found of int in
                  let round =
                    try
                      Bitvec.iter_set po (fun r -> raise (Found r));
                      assert false
                    with Found r -> r
                  in
                  let inputs = Array.map (fun p -> Bitvec.get p round) spats in
                  let cex = mk_cex a b ~inputs ~po:o in
                  if holds a b cex then refuted := Some cex
                  else unresolved := (o, width) :: !unresolved
                end
              end
            end
          done;
          match !refuted with
          | Some cex -> Inequivalent cex
          | None ->
              if !unresolved = [] then Equivalent
              else
                Undecided
                  (Printf.sprintf
                     "%d of %d outputs undecided after %d sweep iterations \
                      (widest remaining support %d > limit %d, BDD budget %d \
                      nodes exhausted)"
                     (List.length !unresolved) npos !iters
                     (List.fold_left (fun acc (_, w) -> max acc w) 0 !unresolved)
                     support_limit bdd_limit)
        end)
  end

let verdict_to_string = function
  | Equivalent -> "equivalent"
  | Inequivalent cex ->
      Printf.sprintf "inequivalent at output %d (A=%b, B=%b) under inputs %s" cex.po
        cex.value_a cex.value_b
        (String.concat ""
           (List.map (fun b -> if b then "1" else "0") (Array.to_list cex.inputs)))
  | Undecided msg -> "undecided: " ^ msg
