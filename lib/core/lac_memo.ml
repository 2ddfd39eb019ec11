module Graph = Aig.Graph
module Batch = Errest.Batch

(* ---------- Packed keys ---------- *)

(* A candidate's key is three ints: the target; the divisors as
   [first lsl 31 lor (second + 1)], [second + 1 = 0] for a single divisor;
   and the cover as base-32 digits, [nvars + 1] first, then [1 + pos lsl 2
   lor neg] per cube.  Every digit is non-zero, so the digit count — and
   with it the whole cover — is recovered from the value.  A target of -1
   marks a candidate that does not pack. *)
let max_id = 1 lsl 30
let max_cubes = 11

let cover_code (cover : Logic.Cover.t) =
  let rec go acc n = function
    | [] -> acc
    | _ when n = max_cubes -> -1
    | (c : Logic.Cube.t) :: rest ->
        go ((acc lsl 5) lor (1 + ((c.pos lsl 2) lor c.neg))) (n + 1) rest
  in
  if cover.nvars > 2 then -1 else go (cover.nvars + 1) 0 cover.cubes

let unpacked = (-1, 0, 0)

let key (lac : Lac.t) =
  let ok d = d >= 0 && d < max_id in
  match lac.divisors with
  | ([| _ |] | [| _; _ |]) as ds when lac.target < max_id && Array.for_all ok ds ->
      let c = cover_code lac.cover in
      if c < 0 then unpacked
      else
        let second = if Array.length ds = 2 then ds.(1) + 1 else 0 in
        (lac.target, (ds.(0) lsl 31) lor second, c)
  | _ -> unpacked

(* ---------- Flat open-addressing table ---------- *)

type table = {
  mutable ka : int array;  (* target; -1 = empty slot *)
  mutable kb : int array;
  mutable kc : int array;
  mutable err : float array;  (* flat: no boxed float per entry *)
  mutable rejected : Bytes.t;  (* '\001' once the raw rebuild was rejected *)
  mutable used : int;
}

let initial_slots = 1024

let make_table slots =
  {
    ka = Array.make slots (-1);
    kb = Array.make slots 0;
    kc = Array.make slots 0;
    err = Array.make slots 0.0;
    rejected = Bytes.make slots '\000';
    used = 0;
  }

let home tbl a b c =
  let h = (a * 0x9E3779B1) lxor (b * 0x85EBCA77) lxor (c * 0xC2B2AE3D) in
  (h lxor (h lsr 29)) land (Array.length tbl.ka - 1)

(* The slot holding the key, or the empty slot its probe ends on as
   [-slot - 1]. *)
let probe tbl a b c =
  let mask = Array.length tbl.ka - 1 in
  let rec go i =
    let s = tbl.ka.(i) in
    if s = -1 then -i - 1
    else if s = a && tbl.kb.(i) = b && tbl.kc.(i) = c then i
    else go ((i + 1) land mask)
  in
  go (home tbl a b c)

let find tbl (a, b, c) = if a < 0 then -1 else max (-1) (probe tbl a b c)

let put tbl i a b c err rejected =
  tbl.ka.(i) <- a;
  tbl.kb.(i) <- b;
  tbl.kc.(i) <- c;
  tbl.err.(i) <- err;
  Bytes.set tbl.rejected i rejected;
  tbl.used <- tbl.used + 1

(* Double the slots and re-insert every entry; the keys are distinct, so
   each probe ends on an empty slot. *)
let grow tbl =
  let old = { tbl with used = 0 } and fresh = make_table (2 * Array.length tbl.ka) in
  tbl.ka <- fresh.ka;
  tbl.kb <- fresh.kb;
  tbl.kc <- fresh.kc;
  tbl.err <- fresh.err;
  tbl.rejected <- fresh.rejected;
  tbl.used <- 0;
  Array.iteri
    (fun i a ->
      if a >= 0 then
        let b = old.kb.(i) and c = old.kc.(i) in
        put tbl (-probe tbl a b c - 1) a b c old.err.(i) (Bytes.get old.rejected i))
    old.ka

let add tbl (a, b, c) err =
  if a >= 0 then begin
    if 2 * (tbl.used + 1) > Array.length tbl.ka then grow tbl;
    let s = probe tbl a b c in
    if s < 0 then put tbl (-s - 1) a b c err '\000'
  end

let clear tbl =
  Array.fill tbl.ka 0 (Array.length tbl.ka) (-1);
  Bytes.fill tbl.rejected 0 (Bytes.length tbl.rejected) '\000';
  tbl.used <- 0

(* ---------- The memo ---------- *)

type stats = { kernel : Batch.stats; memoised : int; rebuilds_skipped : int }

type t = {
  pool : Parallel.Pool.t;
  weights : float array option;
  metric : Errest.Metrics.kind;
  golden : Logic.Bitvec.t array;
  patterns : Logic.Bitvec.t array;
  depth_limit : int;
  counters : stats ref;  (* shared with every [scratch] memo *)
  mutable graph : Graph.t option;  (* the graph everything below describes *)
  mutable base : Logic.Bitvec.t array;
  mutable batch : Batch.t option;
  table : table;
}

let create ?weights ~pool ~metric ~golden ~patterns ~depth_limit () =
  {
    pool;
    weights;
    metric;
    golden;
    patterns;
    depth_limit;
    counters = ref { kernel = Batch.zero_stats; memoised = 0; rebuilds_skipped = 0 };
    graph = None;
    base = [||];
    batch = None;
    table = make_table initial_slots;
  }

let scratch t =
  { t with graph = None; base = [||]; batch = None; table = make_table initial_slots }

let stats t = !(t.counters)

(* Make [g] the graph the memo describes, dropping everything cached for
   another one.  The graph is recorded last, so an exception from the
   simulation leaves the previous state whole. *)
let sync t g =
  match t.graph with
  | Some g' when g' == g -> ()
  | _ ->
      t.base <- Sim.Engine.simulate ~pool:t.pool g t.patterns;
      t.batch <- None;
      clear t.table;
      t.graph <- Some g

let base_sigs t g =
  sync t g;
  t.base

let batch t g =
  match t.batch with
  | Some b -> b
  | None ->
      let b =
        Batch.create ?weights:t.weights g ~metric:t.metric ~golden:t.golden ~base:t.base
      in
      t.batch <- Some b;
      b

(* Kernel counters are cumulative per batch; [since a b] is the work done
   between the two readings. *)
let since (a : Batch.stats) (b : Batch.stats) =
  {
    Batch.scored = b.scored - a.scored;
    trivial = b.trivial - a.trivial;
    early_exits = b.early_exits - a.early_exits;
    frontier_nodes = b.frontier_nodes - a.frontier_nodes;
    changed_pos = b.changed_pos - a.changed_pos;
    changed_words = b.changed_words - a.changed_words;
  }

let errors t g (lacs : Lac.t array) =
  sync t g;
  let keys = Array.map key lacs in
  let errs = Array.make (Array.length lacs) 0.0 in
  let misses = ref [] and hits = ref 0 in
  for i = Array.length lacs - 1 downto 0 do
    let s = find t.table keys.(i) in
    if s >= 0 then begin
      errs.(i) <- t.table.err.(s);
      incr hits
    end
    else misses := i :: !misses
  done;
  let misses = Array.of_list !misses in
  let kernel =
    if Array.length misses = 0 then Batch.zero_stats
    else begin
      let batch = batch t g in
      let specs =
        Array.map
          (fun i ->
            let lac = lacs.(i) in
            let pos_sigs = Array.map (fun d -> t.base.(d)) lac.Lac.divisors in
            (lac.Lac.target, Logic.Cover.eval_sigs lac.Lac.cover ~pos_sigs))
          misses
      in
      let before = Batch.stats batch in
      let scored = Batch.candidate_errors ~pool:t.pool batch specs in
      (* Recorded only once the whole batch is scored: an exception leaves
         no entry behind. *)
      Array.iteri
        (fun j i ->
          errs.(i) <- scored.(j);
          add t.table keys.(i) scored.(j))
        misses;
      since before (Batch.stats batch)
    end
  in
  let c = !(t.counters) in
  t.counters :=
    { c with kernel = Batch.add_stats c.kernel kernel; memoised = c.memoised + !hits };
  errs

let rebuild ?replacement t rb g (lac : Lac.t) =
  sync t g;
  let s = match replacement with Some _ -> -1 | None -> find t.table (key lac) in
  if s >= 0 && Bytes.get t.table.rejected s = '\001' then begin
    let c = !(t.counters) in
    t.counters := { c with rebuilds_skipped = c.rebuilds_skipped + 1 };
    None
  end
  else begin
    let r = match replacement with Some r -> r | None -> Lac.replacement lac in
    let replaced =
      Graph.rebuild_with rb ~replace:(fun id -> if id = lac.Lac.target then Some r else None) g
    in
    if Graph.num_ands replaced < Graph.num_ands g && Aig.Topo.depth replaced <= t.depth_limit
    then Some replaced
    else begin
      Graph.recycle rb replaced;
      if s >= 0 then Bytes.set t.table.rejected s '\001';
      None
    end
  end
