module Bitvec = Logic.Bitvec
module Graph = Aig.Graph
module Fanout = Aig.Fanout

type stats = {
  scored : int;
  trivial : int;
  early_exits : int;
  frontier_nodes : int;
  changed_pos : int;
  changed_words : int;
}

let zero_stats =
  {
    scored = 0;
    trivial = 0;
    early_exits = 0;
    frontier_nodes = 0;
    changed_pos = 0;
    changed_words = 0;
  }

let add_stats a b =
  {
    scored = a.scored + b.scored;
    trivial = a.trivial + b.trivial;
    early_exits = a.early_exits + b.early_exits;
    frontier_nodes = a.frontier_nodes + b.frontier_nodes;
    changed_pos = a.changed_pos + b.changed_pos;
    changed_words = a.changed_words + b.changed_words;
  }

type counters = {
  mutable c_scored : int;
  mutable c_trivial : int;
  mutable c_early : int;
  mutable c_frontier : int;
  mutable c_pos : int;
  mutable c_words : int;
}

let fresh_counters () =
  {
    c_scored = 0;
    c_trivial = 0;
    c_early = 0;
    c_frontier = 0;
    c_pos = 0;
    c_words = 0;
  }

type t = {
  g : Graph.t;
  metric : Metrics.kind;
  golden : Bitvec.t array;
  base : Bitvec.t array;
  len : int;
  nwords : int;
  tail_mask : int;
  prepared : Metrics.prepared;
  (* Shared read-only once forced (the parallel path forces them before
     fanning out). *)
  mutable fanout : Fanout.t;
  mutable base_pos : Bitvec.t array option;
  mutable inc : Metrics.incremental option;
  mutable base_err : float option;
  (* Candidate scratch, reused across candidates: [stamps.(id) = gen] marks
     a node buffer as holding this candidate's CHANGED value (nodes whose
     recomputed value equals the base are never stamped — that is the
     difference-mask early exit). *)
  bufs : Bitvec.t option array;
  stamps : int array;
  mutable gen : int;
  (* Sparse frontier: a min-heap of node ids.  Ids ascend topologically, so
     popping the minimum processes each gate after all its changed fanins. *)
  heap : int array;
  mutable heap_len : int;
  heap_stamp : int array;
  (* Live words of the current candidate: the signature words where the
     seed diff [new_sig ^ base.(node)] is non-zero.  AND-masking only ever
     shrinks a difference, so no downstream node can differ from its base
     outside this set — propagation recomputes ONLY these words, leaving
     the rest of each scratch buffer stale (and never read). *)
  live_words : int array;
  mutable n_live : int;
  (* Changed POs of the current candidate. *)
  mutable po_stamp : int array;
  mutable changed_po : int array;
  mutable n_changed_po : int;
  changed_words_buf : int array;
  counters : counters;
}

let tail_mask_for ~len ~nwords =
  if nwords = 0 then 0
  else begin
    let used = len - ((nwords - 1) * Bitvec.word_bits) in
    if used >= Bitvec.word_bits then Bitvec.word_mask else (1 lsl used) - 1
  end

let create ?weights g ~metric ~golden ~base =
  if Array.length base <> Graph.num_nodes g then
    invalid_arg "Batch.create: base signatures must cover every node";
  let len = if Array.length base = 0 then 0 else Bitvec.length base.(0) in
  let nwords = Bitvec.num_words (Bitvec.create len) in
  let n = Graph.num_nodes g in
  {
    g;
    metric;
    golden;
    base;
    len;
    nwords;
    tail_mask = tail_mask_for ~len ~nwords;
    prepared = Metrics.prepare ?weights metric ~golden;
    fanout = Fanout.build g;
    base_pos = None;
    inc = None;
    base_err = None;
    bufs = Array.make n None;
    stamps = Array.make n 0;
    gen = 0;
    heap = Array.make n 0;
    heap_len = 0;
    heap_stamp = Array.make n 0;
    live_words = Array.make (max 1 nwords) 0;
    n_live = 0;
    po_stamp = Array.make (Graph.num_pos g) 0;
    changed_po = Array.make (max 1 (Graph.num_pos g)) 0;
    n_changed_po = 0;
    changed_words_buf = Array.make (max 1 nwords) 0;
    counters = fresh_counters ();
  }

let graph t = t.g

(* Invalidate derived state if the graph was structurally mutated since the
   fanout CSR was built.  Appending nodes leaves the base signatures
   incomplete — that is unrecoverable; PO rewiring only stales the
   PO-side caches, which are rebuilt. *)
let refresh t =
  if not (Fanout.matches t.fanout t.g) then begin
    if Array.length t.base <> Graph.num_nodes t.g then
      invalid_arg "Batch: graph gained nodes since create; base signatures are stale";
    t.fanout <- Fanout.build t.g;
    t.base_pos <- None;
    t.inc <- None;
    t.base_err <- None;
    let npos = Graph.num_pos t.g in
    if Array.length t.po_stamp <> npos then begin
      t.po_stamp <- Array.make npos 0;
      t.changed_po <- Array.make (max 1 npos) 0
    end
  end

let base_pos t =
  match t.base_pos with
  | Some pos -> pos
  | None ->
      let pos = Sim.Engine.po_values t.g t.base in
      t.base_pos <- Some pos;
      pos

let incremental t =
  match t.inc with
  | Some inc -> inc
  | None ->
      let inc = Metrics.prepare_incremental t.prepared ~approx:(base_pos t) in
      t.inc <- Some inc;
      inc

let base_error t =
  match t.base_err with
  | Some e -> e
  | None ->
      let e = Metrics.incremental_base (incremental t) in
      t.base_err <- Some e;
      e

(* ---------- Frontier machinery ---------- *)

let heap_push t id =
  if t.heap_stamp.(id) <> t.gen then begin
    t.heap_stamp.(id) <- t.gen;
    let heap = t.heap in
    let i = ref t.heap_len in
    t.heap_len <- t.heap_len + 1;
    heap.(!i) <- id;
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      heap.(p) > heap.(!i)
    do
      let p = (!i - 1) / 2 in
      let tmp = heap.(p) in
      heap.(p) <- heap.(!i);
      heap.(!i) <- tmp;
      i := p
    done
  end

let heap_pop t =
  let heap = t.heap in
  let top = heap.(0) in
  t.heap_len <- t.heap_len - 1;
  heap.(0) <- heap.(t.heap_len);
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let s = ref !i in
    if l < t.heap_len && heap.(l) < heap.(!s) then s := l;
    if r < t.heap_len && heap.(r) < heap.(!s) then s := r;
    if !s = !i then continue := false
    else begin
      let tmp = heap.(!s) in
      heap.(!s) <- heap.(!i);
      heap.(!i) <- tmp;
      i := !s
    end
  done;
  top

let push_fanouts t v =
  let offsets = Fanout.offsets t.fanout and targets = Fanout.targets t.fanout in
  for i = offsets.(v) to offsets.(v + 1) - 1 do
    heap_push t targets.(i)
  done

let mark_pos t v =
  let po_offsets = Fanout.po_offsets t.fanout
  and po_targets = Fanout.po_targets t.fanout in
  for i = po_offsets.(v) to po_offsets.(v + 1) - 1 do
    let p = po_targets.(i) in
    if t.po_stamp.(p) <> t.gen then begin
      t.po_stamp.(p) <- t.gen;
      t.changed_po.(t.n_changed_po) <- p;
      t.n_changed_po <- t.n_changed_po + 1
    end
  done

let buf_for t id =
  match t.bufs.(id) with
  | Some v when Bitvec.length v = t.len -> v
  | _ ->
      let v = Bitvec.create t.len in
      t.bufs.(id) <- Some v;
      v

let word_mask = Bitvec.word_mask
let phase_mask l = if Graph.is_compl l then word_mask else 0

(* Fused recompute-and-compare over the candidate's LIVE words only:
   dst.(w) := (a ^ ma) & (b ^ mb) for each live [w], returning whether any
   differs from the base value.  Non-live words of [dst] are left stale —
   no downstream read ever touches them.  The tail word is masked before
   the comparison so phase masks cannot fabricate a difference in the
   padding. *)
let and_words_diff t dst a b ma mb base_v =
  let dw = Bitvec.unsafe_words dst
  and aw = Bitvec.unsafe_words a
  and bw = Bitvec.unsafe_words b
  and ev = Bitvec.unsafe_words base_v in
  let last = Array.length dw - 1 in
  let diff = ref 0 in
  for k = 0 to t.n_live - 1 do
    let i = t.live_words.(k) in
    let x = (aw.(i) lxor ma) land (bw.(i) lxor mb) in
    let x = if i = last then x land t.tail_mask else x in
    dw.(i) <- x;
    diff := !diff lor (x lxor ev.(i))
  done;
  !diff <> 0

(* Level-ordered sparse traversal of the change's actual reach.  Returns
   the number of POs whose driver value changed; the scratch state
   ([stamps]/[bufs]/[live_words]/[changed_po]) describes the candidate
   until the next propagation.  Assumes [new_sig <> base.(node)]. *)
let propagate t ~node ~new_sig =
  t.gen <- t.gen + 1;
  t.heap_len <- 0;
  t.n_changed_po <- 0;
  (* The live-word set: words of the seed difference.  AND gates can only
     mask differences away, never spread them to other rounds, so this set
     bounds every downstream diff. *)
  let nw = Bitvec.unsafe_words new_sig and bw = Bitvec.unsafe_words t.base.(node) in
  t.n_live <- 0;
  for w = 0 to t.nwords - 1 do
    if nw.(w) lxor bw.(w) <> 0 then begin
      t.live_words.(t.n_live) <- w;
      t.n_live <- t.n_live + 1
    end
  done;
  t.stamps.(node) <- t.gen;
  let seed = Bitvec.unsafe_words (buf_for t node) in
  for k = 0 to t.n_live - 1 do
    let w = t.live_words.(k) in
    seed.(w) <- nw.(w)
  done;
  mark_pos t node;
  push_fanouts t node;
  while t.heap_len > 0 do
    let u = heap_pop t in
    t.counters.c_frontier <- t.counters.c_frontier + 1;
    let f0 = Graph.fanin0 t.g u and f1 = Graph.fanin1 t.g u in
    let n0 = Graph.node_of f0 and n1 = Graph.node_of f1 in
    let s0 = if t.stamps.(n0) = t.gen then Option.get t.bufs.(n0) else t.base.(n0) in
    let s1 = if t.stamps.(n1) = t.gen then Option.get t.bufs.(n1) else t.base.(n1) in
    let dst = buf_for t u in
    if and_words_diff t dst s0 s1 (phase_mask f0) (phase_mask f1) t.base.(u) then begin
      t.stamps.(u) <- t.gen;
      mark_pos t u;
      push_fanouts t u
    end
  done;
  t.n_changed_po

(* Word [w] of the candidate signature of PO [po]: the driver's scratch
   buffer when it changed, the base signature otherwise; complemented edges
   are tail-masked so padding stays zero.  Only called for changed words,
   which are live — stale non-live scratch words are never read. *)
let po_word t po w =
  let l = Graph.po_lit t.g po in
  let d = Graph.node_of l in
  let words =
    if t.stamps.(d) = t.gen then Bitvec.unsafe_words (Option.get t.bufs.(d))
    else Bitvec.unsafe_words t.base.(d)
  in
  let x = words.(w) in
  if Graph.is_compl l then
    lnot x land (if w = t.nwords - 1 then t.tail_mask else word_mask)
  else x

(* The signature words the change reached: union over changed POs of the
   driver's non-zero difference words.  Only live words can differ, and
   [live_words] is ascending, so the result is too. *)
let collect_changed_words t =
  let cn = ref 0 in
  for j = 0 to t.n_live - 1 do
    let w = t.live_words.(j) in
    let hit = ref false in
    let k = ref 0 in
    while (not !hit) && !k < t.n_changed_po do
      let d = Graph.node_of (Graph.po_lit t.g t.changed_po.(!k)) in
      let dwords = Bitvec.unsafe_words (Option.get t.bufs.(d)) in
      let bwords = Bitvec.unsafe_words t.base.(d) in
      if dwords.(w) lxor bwords.(w) <> 0 then hit := true;
      incr k
    done;
    if !hit then begin
      t.changed_words_buf.(!cn) <- w;
      incr cn
    end
  done;
  !cn

let candidate_error t ~node ~new_sig =
  refresh t;
  if Bitvec.length new_sig <> t.len then
    invalid_arg "Batch.candidate_error: signature length mismatch";
  t.counters.c_scored <- t.counters.c_scored + 1;
  if Bitvec.equal new_sig t.base.(node) then begin
    t.counters.c_trivial <- t.counters.c_trivial + 1;
    base_error t
  end
  else begin
    let inc = incremental t in
    let ncp = propagate t ~node ~new_sig in
    if ncp = 0 then begin
      (* Every difference was masked out before reaching an output. *)
      t.counters.c_early <- t.counters.c_early + 1;
      base_error t
    end
    else begin
      t.counters.c_pos <- t.counters.c_pos + ncp;
      let cn = collect_changed_words t in
      t.counters.c_words <- t.counters.c_words + cn;
      Metrics.measure_incremental inc ~nchanged:cn
        ~changed_words:t.changed_words_buf ~nchanged_pos:ncp
        ~changed_pos:t.changed_po
        ~get_word:(fun po w -> po_word t po w)
    end
  end

let stats t =
  let c = t.counters in
  {
    scored = c.c_scored;
    trivial = c.c_trivial;
    early_exits = c.c_early;
    frontier_nodes = c.c_frontier;
    changed_pos = c.c_pos;
    changed_words = c.c_words;
  }

(* A scratch-only clone for one pool task: shares every read-only part (the
   graph, golden and base signatures, fanout CSR, prepared metric and the
   pre-forced incremental base state) and owns fresh frontier scratch plus
   its own counters.  [base_error]/[incremental] must already be forced on
   [t] so clones never race to compute them. *)
let clone_scratch t =
  let n = Graph.num_nodes t.g in
  {
    t with
    bufs = Array.make n None;
    stamps = Array.make n 0;
    gen = 0;
    heap = Array.make n 0;
    heap_len = 0;
    heap_stamp = Array.make n 0;
    live_words = Array.make (Array.length t.live_words) 0;
    n_live = 0;
    po_stamp = Array.make (Array.length t.po_stamp) 0;
    changed_po = Array.make (Array.length t.changed_po) 0;
    n_changed_po = 0;
    changed_words_buf = Array.make (Array.length t.changed_words_buf) 0;
    counters = fresh_counters ();
  }

let merge_counters ~into c =
  into.c_scored <- into.c_scored + c.c_scored;
  into.c_trivial <- into.c_trivial + c.c_trivial;
  into.c_early <- into.c_early + c.c_early;
  into.c_frontier <- into.c_frontier + c.c_frontier;
  into.c_pos <- into.c_pos + c.c_pos;
  into.c_words <- into.c_words + c.c_words

let candidate_errors ?pool t specs =
  let n = Array.length specs in
  let parallel =
    match pool with Some p -> Parallel.Pool.size p > 1 && n > 1 | None -> false
  in
  if not parallel then
    Array.map (fun (node, new_sig) -> candidate_error t ~node ~new_sig) specs
  else begin
    (* Force the shared state sequentially: after this, tasks only READ the
       fanout CSR, the incremental base contributions and [base_err], so
       sharing them across domains is safe. *)
    refresh t;
    ignore (base_error t : float);
    let out = Array.make n 0.0 in
    let chunk_size = max 1 ((n + 15) / 16) in
    let nchunks = (n + chunk_size - 1) / chunk_size in
    let chunk_counters = Array.make nchunks None in
    Parallel.Chunk.iter ?pool ~chunk_size ~n (fun lo hi ->
        let local = clone_scratch t in
        for i = lo to hi - 1 do
          let node, new_sig = specs.(i) in
          out.(i) <- candidate_error local ~node ~new_sig
        done;
        chunk_counters.(lo / chunk_size) <- Some local.counters);
    (* Counter merge is order-insensitive (integer sums), folded in chunk
       order anyway for good measure. *)
    Array.iter
      (function Some c -> merge_counters ~into:t.counters c | None -> ())
      chunk_counters;
    out
  end
