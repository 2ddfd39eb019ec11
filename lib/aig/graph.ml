type lit = int

let const0 = 0
let const1 = 1

let make_lit id compl = (id * 2) + if compl then 1 else 0
let node_of l = l lsr 1
let is_compl l = l land 1 = 1
let lit_not l = l lxor 1
let lit_not_cond l c = if c then l lxor 1 else l

(* Fanin sentinel distinguishing PIs from ANDs. *)
let pi_sentinel = -1

(* Derived views, rebuilt in bulk per revision (see the .mli). *)
type views = {
  v_rev : int;
  v_levels : int array;
  v_refs : int array;
  v_offsets : int array;
  v_targets : int array;
  v_po_offsets : int array;
  v_po_targets : int array;
  v_depth : int;
}

(* Struct-of-arrays node store: [fanin0]/[fanin1]/[pi_pos] are parallel
   arrays sharing one capacity ([cap]); the strash is an open-addressing
   table of [node id + 1] slots (0 = empty) probed directly against the
   fanin arrays, so a lookup allocates nothing and a copy is a blit. *)
type t = {
  mutable graph_name : string;
  mutable fanin0 : int array;
  mutable fanin1 : int array;
  mutable pi_pos : int array; (* node id -> PI index, -1 otherwise *)
  mutable cap : int; (* shared capacity of the node-indexed arrays *)
  mutable nnodes : int;
  mutable pis : int array;
  mutable pi_names : string array;
  mutable npis : int;
  mutable pos : int array;
  mutable po_names : string array;
  mutable npos : int;
  mutable strash : int array; (* open addressing; slot = id + 1, 0 empty *)
  mutable strash_mask : int; (* Array.length strash - 1 (power of two) *)
  mutable strash_used : int;
  mutable rev : int; (* bumped on every structural mutation *)
  mutable cached_views : views option;
}

(* 2048 slots (16 KiB) holds 1024 ANDs before the first rehash — the same
   effective pre-size as the old tuple-keyed [Hashtbl.create 1024], so
   typical benchmark-scale construction never rehashes at all. *)
let strash_init_size = 2048

let create ?(name = "aig") () =
  let cap = 256 in
  {
    graph_name = name;
    fanin0 = Array.make cap pi_sentinel;
    fanin1 = Array.make cap pi_sentinel;
    pi_pos = Array.make cap (-1);
    cap;
    nnodes = 1; (* node 0 is the constant, marked as a non-AND *)
    pis = Array.make 8 0;
    pi_names = Array.make 8 "";
    npis = 0;
    pos = Array.make 8 0;
    po_names = Array.make 8 "";
    npos = 0;
    strash = Array.make strash_init_size 0;
    strash_mask = strash_init_size - 1;
    strash_used = 0;
    rev = 0;
    cached_views = None;
  }

let name g = g.graph_name
let set_name g n = g.graph_name <- n

(* ---------- Growth: all node-indexed arrays share one capacity ---------- *)

let grow_nodes g n =
  let cap' = max (2 * g.cap) n in
  let f0 = Array.make cap' pi_sentinel in
  let f1 = Array.make cap' pi_sentinel in
  let pp = Array.make cap' (-1) in
  Array.blit g.fanin0 0 f0 0 g.nnodes;
  Array.blit g.fanin1 0 f1 0 g.nnodes;
  Array.blit g.pi_pos 0 pp 0 g.nnodes;
  g.fanin0 <- f0;
  g.fanin1 <- f1;
  g.pi_pos <- pp;
  g.cap <- cap'

let grow_pis g n =
  if n > Array.length g.pis then begin
    let cap' = max (2 * Array.length g.pis) n in
    let pis' = Array.make cap' 0 in
    let names' = Array.make cap' "" in
    Array.blit g.pis 0 pis' 0 g.npis;
    Array.blit g.pi_names 0 names' 0 g.npis;
    g.pis <- pis';
    g.pi_names <- names'
  end

let grow_pos g n =
  if n > Array.length g.pos then begin
    let cap' = max (2 * Array.length g.pos) n in
    let pos' = Array.make cap' 0 in
    let names' = Array.make cap' "" in
    Array.blit g.pos 0 pos' 0 g.npos;
    Array.blit g.po_names 0 names' 0 g.npos;
    g.pos <- pos';
    g.po_names <- names'
  end

(* ---------- Open-addressing strash ---------- *)

let strash_hash a b =
  let h = (a * 0x9E3779B1) lxor (b * 0x85EBCA77) in
  h lxor (h lsr 16)

(* Probe for the AND node with (normalized) fanins [a], [b].  Returns the
   node id on a hit; on a miss, returns [-slot - 1] for the free slot the
   probe ended on, so the caller can insert without a second probe.  The
   probe is top-level, not a closure over the table, so a lookup allocates
   nothing; the [int] annotations keep [=] an integer compare. *)
let rec strash_probe (tbl : int array) mask (f0 : int array) (f1 : int array)
    (a : int) (b : int) i =
  let s = Array.unsafe_get tbl i in
  if s = 0 then -i - 1
  else
    let id = s - 1 in
    if Array.unsafe_get f0 id = a && Array.unsafe_get f1 id = b then id
    else strash_probe tbl mask f0 f1 a b ((i + 1) land mask)

let strash_lookup g a b =
  strash_probe g.strash g.strash_mask g.fanin0 g.fanin1 a b
    (strash_hash a b land g.strash_mask)

(* Insert into a table with a known-free slot (growth checked by callers). *)
let table_insert tbl mask a b id =
  let rec probe i =
    if Array.unsafe_get tbl i = 0 then Array.unsafe_set tbl i (id + 1)
    else probe ((i + 1) land mask)
  in
  probe (strash_hash a b land mask)

(* Bulk rehash into a table of [size] slots (a power of two): one pass over
   the fanin arrays — no per-entry key allocation, ever. *)
let rehash_strash g size =
  let tbl = Array.make size 0 in
  let mask = size - 1 in
  let count = ref 0 in
  for id = 1 to g.nnodes - 1 do
    let a = g.fanin0.(id) in
    if a <> pi_sentinel then begin
      table_insert tbl mask a g.fanin1.(id) id;
      incr count
    end
  done;
  g.strash <- tbl;
  g.strash_mask <- mask;
  g.strash_used <- !count

let reserve g n =
  if n > g.cap then grow_nodes g n;
  let cur = Array.length g.strash in
  let target = ref cur in
  while !target < 2 * (n + 1) do
    target := 2 * !target
  done;
  if !target > cur then rehash_strash g !target

(* Node ids, names and the strash's contents stay; only the slack goes.
   The strash keeps [and_]'s load factor of at most 1/2. *)
let trim g =
  let n = g.nnodes in
  g.fanin0 <- Array.sub g.fanin0 0 n;
  g.fanin1 <- Array.sub g.fanin1 0 n;
  g.pi_pos <- Array.sub g.pi_pos 0 n;
  g.cap <- n;
  g.pis <- Array.sub g.pis 0 g.npis;
  g.pi_names <- Array.sub g.pi_names 0 g.npis;
  g.pos <- Array.sub g.pos 0 g.npos;
  g.po_names <- Array.sub g.po_names 0 g.npos;
  let size = ref 1 in
  while !size < 2 * (n + 1) do
    size := 2 * !size
  done;
  rehash_strash g !size;
  g.cached_views <- None

(* ---------- Append-only mutation ---------- *)

let new_node g f0 f1 =
  let id = g.nnodes in
  if id >= g.cap then grow_nodes g (id + 1);
  g.fanin0.(id) <- f0;
  g.fanin1.(id) <- f1;
  g.pi_pos.(id) <- -1;
  g.nnodes <- id + 1;
  g.rev <- g.rev + 1;
  id

let add_pi ?name g =
  let id = new_node g pi_sentinel pi_sentinel in
  let idx = g.npis in
  grow_pis g (idx + 1);
  g.pis.(idx) <- id;
  g.pi_names.(idx) <- (match name with Some n -> n | None -> Printf.sprintf "x%d" idx);
  g.npis <- idx + 1;
  g.pi_pos.(id) <- idx;
  make_lit id false

let and_ g a b =
  let a, b = if a <= b then (a, b) else (b, a) in
  if a = const0 then const0
  else if a = const1 then b
  else if a = b then a
  else if a = lit_not b then const0
  else begin
    let r = strash_lookup g a b in
    if r >= 0 then make_lit r false
    else begin
      let id = new_node g a b in
      if 2 * (g.strash_used + 1) > Array.length g.strash then
        (* The bulk rehash scans the fanin arrays, which already hold the
           new node — it is inserted (and counted) by the rehash itself. *)
        rehash_strash g (2 * Array.length g.strash)
      else begin
        (* Reuse the free slot the failed probe ended on: the table has not
           changed since, so it is still the pair's canonical slot. *)
        Array.unsafe_set g.strash (-r - 1) (id + 1);
        g.strash_used <- g.strash_used + 1
      end;
      make_lit id false
    end
  end

let find_and g a b =
  let a, b = if a <= b then (a, b) else (b, a) in
  let id = strash_lookup g a b in
  if id >= 0 then Some id else None

let add_po ?name g l =
  let idx = g.npos in
  grow_pos g (idx + 1);
  g.pos.(idx) <- l;
  g.po_names.(idx) <- (match name with Some n -> n | None -> Printf.sprintf "y%d" idx);
  g.npos <- idx + 1;
  g.rev <- g.rev + 1;
  idx

let set_po g i l =
  if i < 0 || i >= g.npos then invalid_arg "Graph.set_po: index out of range";
  g.pos.(i) <- l;
  g.rev <- g.rev + 1

let revision g = g.rev

let num_nodes g = g.nnodes
let num_pis g = g.npis
let num_pos g = g.npos
let num_ands g = g.nnodes - 1 - g.npis

let check_node g id =
  if id < 0 || id >= g.nnodes then invalid_arg "Graph: node id out of range"

let pi_node g i =
  if i < 0 || i >= g.npis then invalid_arg "Graph.pi_node: index out of range";
  g.pis.(i)

let pi_lit g i = make_lit (pi_node g i) false

let po_lit g i =
  if i < 0 || i >= g.npos then invalid_arg "Graph.po_lit: index out of range";
  g.pos.(i)

let pi_name g i =
  if i < 0 || i >= g.npis then invalid_arg "Graph.pi_name: index out of range";
  g.pi_names.(i)

let po_name g i =
  if i < 0 || i >= g.npos then invalid_arg "Graph.po_name: index out of range";
  g.po_names.(i)

let pi_index g id =
  check_node g id;
  g.pi_pos.(id)

let is_const id = id = 0

let is_pi g id =
  check_node g id;
  id <> 0 && g.fanin0.(id) = pi_sentinel

let is_and g id =
  check_node g id;
  g.fanin0.(id) <> pi_sentinel

let fanin0 g id =
  check_node g id;
  if g.fanin0.(id) = pi_sentinel then invalid_arg "Graph.fanin0: not an AND node";
  g.fanin0.(id)

let fanin1 g id =
  check_node g id;
  if g.fanin1.(id) = pi_sentinel then invalid_arg "Graph.fanin1: not an AND node";
  g.fanin1.(id)

let iter_ands g f =
  for id = 1 to g.nnodes - 1 do
    if g.fanin0.(id) <> pi_sentinel then f id
  done

let iter_pos g f =
  for i = 0 to g.npos - 1 do
    f i g.pos.(i)
  done

(* ---------- Derived views ---------- *)

(* One bulk pass computes levels, reference counts and the out-degree
   histograms; a second fill pass writes the two CSR target arrays.  Node
   ids ascend topologically, so each node's consumer slice is sorted
   ascending by construction, and PO slices are sorted by PO index. *)
let compute_views g =
  let n = g.nnodes in
  let levels = Array.make n 0 in
  let refs = Array.make n 0 in
  let offsets = Array.make (n + 1) 0 in
  let po_offsets = Array.make (n + 1) 0 in
  for id = 1 to n - 1 do
    let f0 = g.fanin0.(id) in
    if f0 <> pi_sentinel then begin
      let f1 = g.fanin1.(id) in
      let n0 = node_of f0 and n1 = node_of f1 in
      let l0 = levels.(n0) and l1 = levels.(n1) in
      levels.(id) <- 1 + if l0 >= l1 then l0 else l1;
      refs.(n0) <- refs.(n0) + 1;
      refs.(n1) <- refs.(n1) + 1;
      (* An AND never has both fanins on the same node after folding, but
         guard anyway so parsed graphs cannot produce duplicate edges. *)
      offsets.(n0) <- offsets.(n0) + 1;
      if n1 <> n0 then offsets.(n1) <- offsets.(n1) + 1
    end
  done;
  let depth = ref 0 in
  for i = 0 to g.npos - 1 do
    let d = node_of g.pos.(i) in
    refs.(d) <- refs.(d) + 1;
    po_offsets.(d) <- po_offsets.(d) + 1;
    if levels.(d) > !depth then depth := levels.(d)
  done;
  (* Exclusive prefix sums. *)
  let acc = ref 0 in
  for v = 0 to n do
    let c = offsets.(v) in
    offsets.(v) <- !acc;
    acc := !acc + c
  done;
  let targets = Array.make !acc 0 in
  let pacc = ref 0 in
  for v = 0 to n do
    let c = po_offsets.(v) in
    po_offsets.(v) <- !pacc;
    pacc := !pacc + c
  done;
  let po_targets = Array.make !pacc 0 in
  (* Fill pass, using copies of the offsets as write cursors. *)
  let cursor = Array.copy offsets in
  for id = 1 to n - 1 do
    let f0 = g.fanin0.(id) in
    if f0 <> pi_sentinel then begin
      let n0 = node_of f0 and n1 = node_of g.fanin1.(id) in
      targets.(cursor.(n0)) <- id;
      cursor.(n0) <- cursor.(n0) + 1;
      if n1 <> n0 then begin
        targets.(cursor.(n1)) <- id;
        cursor.(n1) <- cursor.(n1) + 1
      end
    end
  done;
  let po_cursor = Array.copy po_offsets in
  for i = 0 to g.npos - 1 do
    let d = node_of g.pos.(i) in
    po_targets.(po_cursor.(d)) <- i;
    po_cursor.(d) <- po_cursor.(d) + 1
  done;
  {
    v_rev = g.rev;
    v_levels = levels;
    v_refs = refs;
    v_offsets = offsets;
    v_targets = targets;
    v_po_offsets = po_offsets;
    v_po_targets = po_targets;
    v_depth = !depth;
  }

let views g =
  match g.cached_views with
  | Some v when v.v_rev = g.rev -> v
  | _ ->
      (* Concurrent read-only users may race to this store; both compute the
         same immutable bundle for the same revision, and a record-pointer
         store cannot tear, so either winner is correct. *)
      let v = compute_views g in
      g.cached_views <- Some v;
      v

let levels g = (views g).v_levels
let ref_counts g = (views g).v_refs
let depth g = (views g).v_depth

(* ---------- Whole-graph copies: blits, no strash re-insertion ---------- *)

let clone g =
  {
    graph_name = g.graph_name;
    fanin0 = Array.copy g.fanin0;
    fanin1 = Array.copy g.fanin1;
    pi_pos = Array.copy g.pi_pos;
    cap = g.cap;
    nnodes = g.nnodes;
    pis = Array.copy g.pis;
    pi_names = Array.copy g.pi_names;
    npis = g.npis;
    pos = Array.copy g.pos;
    po_names = Array.copy g.po_names;
    npos = g.npos;
    strash = Array.copy g.strash;
    strash_mask = g.strash_mask;
    strash_used = g.strash_used;
    rev = g.rev;
    (* Views are immutable per revision: sharing the bundle is safe until
       either side mutates (which bumps its own [rev] and recomputes). *)
    cached_views = g.cached_views;
  }

(* ---------- Restructuring ---------- *)

type replacement =
  | Replace_lit of lit
  | Replace_expr of Logic.Factor.expr * int array

let rec build_expr g expr leaves =
  match expr with
  | Logic.Factor.Const b -> if b then const1 else const0
  | Logic.Factor.Lit (v, phase) ->
      if v < 0 || v >= Array.length leaves then invalid_arg "Graph.build_expr: leaf out of range";
      lit_not_cond leaves.(v) (not phase)
  | Logic.Factor.And es ->
      List.fold_left (fun acc e -> and_ g acc (build_expr g e leaves)) const1 es
  | Logic.Factor.Or es ->
      (* De Morgan: OR = NOT (AND of NOTs). *)
      lit_not
        (List.fold_left
           (fun acc e -> and_ g acc (lit_not (build_expr g e leaves)))
           const1 es)

type rebuilder = {
  mutable rb_map : int array; (* old node id -> new literal scratch *)
  mutable rb_spare : t option; (* recycled destination graph *)
}

let rebuilder () = { rb_map = [||]; rb_spare = None }

(* Reset a recycled graph for reuse: counts back to empty, strash slots
   zeroed in place (no allocation), revision bumped so any derived
   structure built against the previous contents reads as stale. *)
let reset_graph g ~name =
  g.graph_name <- name;
  g.nnodes <- 1;
  g.npis <- 0;
  g.npos <- 0;
  g.fanin0.(0) <- pi_sentinel;
  g.fanin1.(0) <- pi_sentinel;
  g.pi_pos.(0) <- -1;
  Array.fill g.strash 0 (Array.length g.strash) 0;
  g.strash_used <- 0;
  g.rev <- g.rev + 1;
  g.cached_views <- None

let recycle rb g = rb.rb_spare <- Some g

let rebuild_with rb ?replace g =
  let fresh =
    match rb.rb_spare with
    | Some s when s != g ->
        rb.rb_spare <- None;
        reset_graph s ~name:g.graph_name;
        s
    | Some _ | None -> create ~name:g.graph_name ()
  in
  (* The source node count bounds the copy (substitutions can still push
     past it; growth stays amortized): size everything once, up front. *)
  reserve fresh g.nnodes;
  if Array.length rb.rb_map < g.nnodes then rb.rb_map <- Array.make (max 1024 g.nnodes) (-2)
  else Array.fill rb.rb_map 0 g.nnodes (-2);
  (* Map old node id -> new literal; -2 = unvisited, -3 = in progress. *)
  let mapping = rb.rb_map in
  mapping.(0) <- const0;
  for i = 0 to g.npis - 1 do
    let l = add_pi ~name:g.pi_names.(i) fresh in
    mapping.(g.pis.(i)) <- l
  done;
  let rec copy_lit l = lit_not_cond (copy_node (node_of l)) (is_compl l)
  and copy_node id =
    match mapping.(id) with
    | -3 -> failwith "Graph.rebuild: substitution creates a combinational cycle"
    | -2 ->
        mapping.(id) <- -3;
        let result =
          match (match replace with Some r -> r id | None -> None) with
          | Some (Replace_lit l) -> copy_lit l
          | Some (Replace_expr (expr, leaves)) ->
              let leaf_lits = Array.map (fun leaf -> copy_lit (make_lit leaf false)) leaves in
              build_expr fresh expr leaf_lits
          | None -> and_ fresh (copy_lit g.fanin0.(id)) (copy_lit g.fanin1.(id))
        in
        mapping.(id) <- result;
        result
    | l -> l
  in
  for i = 0 to g.npos - 1 do
    ignore (add_po ~name:g.po_names.(i) fresh (copy_lit g.pos.(i)))
  done;
  fresh

let rebuild ?replace g = rebuild_with (rebuilder ()) ?replace g

let compact g = rebuild g

let pp_stats ppf g =
  Format.fprintf ppf "%s: pi=%d po=%d and=%d" g.graph_name g.npis g.npos (num_ands g)
