module Graph = Aig.Graph
module Bitvec = Logic.Bitvec

let fanin_nodes g v =
  let n0 = Graph.node_of (Graph.fanin0 g v) in
  let n1 = Graph.node_of (Graph.fanin1 g v) in
  if n0 = n1 then [ n0 ] else [ n0; n1 ]

let normalize set =
  let arr = Array.of_list set in
  Array.sort compare arr;
  arr

(* ---------- Exact int-keyed set dedup ----------

   Divisor sets are short sorted int arrays.  They are deduplicated through
   an int-keyed hash table (FNV over the elements) whose buckets hold the
   sets themselves for exact comparison — the same collision discipline as
   [Sim.Fraig]'s signature classes, with none of the polymorphic-[Hashtbl]
   hashing of arrays the old implementation leaned on. *)

let set_hash arr =
  let h = ref (Array.length arr) in
  Array.iter (fun i -> h := ((!h * 0x01000193) lxor (i + 1)) land max_int) arr;
  !h

let same_set a b =
  Array.length a = Array.length b
  &&
  let eq = ref true in
  Array.iteri (fun i x -> if x <> b.(i) then eq := false) a;
  !eq

let dedup_create () : (int, int array list ref) Hashtbl.t = Hashtbl.create 64

let dedup_add seen arr =
  let h = set_hash arr in
  match Hashtbl.find_opt seen h with
  | None ->
      Hashtbl.add seen h (ref [ arr ]);
      true
  | Some bucket ->
      if List.exists (same_set arr) !bucket then false
      else begin
        bucket := arr :: !bucket;
        true
      end

(* ---------- Nearest-first TFI enumeration ----------

   [Cone.tfi_nodes] lists the cone in ASCENDING level order, so truncating
   it at [max_tfi] kept the PIs and dropped exactly the nodes structurally
   closest to the target — the divisors most likely to admit a small
   resubstitution function.  Enumerate nearest-first instead: descending
   level, ascending id within a level, straight off the cached SoA level
   view, and cap AFTER ordering so the near cone always survives. *)

let tfi_candidates g ~max_tfi v =
  if not (Graph.is_and g v) then []
  else begin
    let mask = Aig.Cone.tfi_mask g v in
    let lev = Graph.levels g in
    let buckets = Array.make (lev.(v) + 1) [] in
    for i = Graph.num_nodes g - 1 downto 1 do
      if mask.(i) && i <> v then buckets.(lev.(i)) <- i :: buckets.(lev.(i))
    done;
    let out = ref [] and count = ref 0 in
    (try
       for l = Array.length buckets - 1 downto 0 do
         List.iter
           (fun i ->
             if !count >= max_tfi then raise Exit;
             out := i :: !out;
             incr count)
           buckets.(l)
       done
     with Exit -> ());
    List.rev !out
  end

let iter_sets g ~max_tfi v f =
  if not (Graph.is_and g v) then ()
  else begin
    let fis = fanin_nodes g v in
    let tfi = tfi_candidates g ~max_tfi v in
    let seen = dedup_create () in
    let exception Stop in
    let emit set =
      let arr = normalize set in
      if dedup_add seen arr then
        match f arr with `Stop -> raise Stop | `Continue -> ()
    in
    try
      List.iter
        (fun n ->
          let a = List.filter (fun x -> x <> n) fis in
          emit a;
          List.iter (fun u -> if u <> v && not (List.mem u a) then emit (u :: a)) tfi)
        fis
    with Stop -> ()
  end

(* AND nodes of the target's MFFC that actually die when the target is
   replaced by a function of [divisors]: a divisor inside the MFFC keeps
   itself and its in-MFFC transitive fanin alive.  [in_mffc] is the node's
   membership table, built once per target and shared across its (many)
   divisor sets.  Shared by the LAC generator and the exact-resub engine. *)
let true_savings g ~in_mffc ~mffc_size divisors =
  (* Fast path: divisors outside the MFFC keep nothing alive. *)
  if Array.for_all (fun d -> not (Hashtbl.mem in_mffc d)) divisors then mffc_size
  else begin
    let kept = Hashtbl.create 8 in
    let rec keep id =
      if Hashtbl.mem in_mffc id && not (Hashtbl.mem kept id) then begin
        Hashtbl.replace kept id ();
        keep (Graph.node_of (Graph.fanin0 g id));
        keep (Graph.node_of (Graph.fanin1 g id))
      end
    in
    Array.iter keep divisors;
    mffc_size - Hashtbl.length kept
  end

let select g ~max_tfi v =
  let acc = ref [] in
  iter_sets g ~max_tfi v (fun set ->
      acc := set :: !acc;
      `Continue);
  List.rev !acc

(* ---------- Ranked lazy walk ----------

   The sets of [iter_sets] in (savings descending, enumeration index
   ascending) order, i.e. what a stable sort of [select] by [true_savings]
   yields, built only as far as the consumer reads.  Folding in
   [Graph.and_] gives every AND two distinct non-constant fanins [f0 < f1],
   so the enumeration is block 0 = {f1}, {u, f1} for u in the TFI list,
   then block 1 = {f0}, {u, f0}; the only duplicate is {f0, f1}, emitted in
   block 0 when [f0] survived the [max_tfi] cap and in block 1 otherwise.

   [true_savings] of a set is the MFFC size minus the size of the union of
   its divisors' in-MFFC fanin closures, so with one closure bitset per MFFC
   node every set's savings is a popcount (and {u, f} saves exactly what
   {f} does when u is outside the MFFC).  Adding a divisor never raises the
   savings, so block b is bounded by the savings of its kept fanin alone.
   A set reaching the bound of everything not yet enumerated is handed out
   the moment enumeration reaches it; lower ones wait in per-savings
   buckets (as [2u + block], [u = 0] for the singleton: node 0 is never a
   TFI candidate) until the bound drops to their value. *)

let iter_ranked g ~max_tfi ~mffc v f =
  if Graph.is_and g v then begin
    let f0 = Graph.node_of (Graph.fanin0 g v) in
    let f1 = Graph.node_of (Graph.fanin1 g v) in
    let tfi = tfi_candidates g ~max_tfi v in
    let members = Array.of_list mffc in
    Array.sort compare members;
    let m = Array.length members in
    (* Position of node [x] in [members], or -1 outside the MFFC. *)
    let local x =
      let rec search lo hi =
        if lo >= hi then -1
        else
          let mid = (lo + hi) / 2 in
          let y = members.(mid) in
          if y = x then mid else if y < x then search (mid + 1) hi else search lo mid
      in
      search 0 m
    in
    (* Ascending ids are topological, so fanin closures are ready in time. *)
    let closure = Array.map (fun _ -> Bitvec.create m) members in
    Array.iteri
      (fun i x ->
        Bitvec.set closure.(i) i true;
        let add l =
          let j = local (Graph.node_of l) in
          if j >= 0 then Bitvec.logor_inplace closure.(i) closure.(j)
        in
        add (Graph.fanin0 g x);
        add (Graph.fanin1 g x))
      members;
    let size = Array.map Bitvec.popcount closure in
    (* [true_savings] of {u, k}; [u = 0] stands for {k} alone. *)
    let savings u k =
      let ju = local u and jk = local k in
      if ju < 0 then if jk < 0 then m else m - size.(jk)
      else if jk < 0 then m - size.(ju)
      else m - ((size.(ju) + size.(jk) + Bitvec.popcount_xor closure.(ju) closure.(jk)) / 2)
    in
    let kept = [| f1; f0 |] in
    let set_of code =
      let u = code lsr 1 and k = kept.(code land 1) in
      if u = 0 then [| k |] else if u < k then [| u; k |] else [| k; u |]
    in
    let exception Stop in
    let emit s code =
      match f ~savings:s (set_of code) with `Stop -> raise Stop | `Continue -> ()
    in
    let s0 = savings 0 f0 and s1 = savings 0 f1 in
    let bound = ref (max s0 s1) in
    let waiting = Array.make !bound [] in
    (* Hand out every waiting set at or above [down_to], best first. *)
    let lower_bound down_to =
      for s = !bound - 1 downto down_to do
        List.iter (emit s) (List.rev waiting.(s));
        waiting.(s) <- []
      done;
      bound := down_to
    in
    let visit s code = if s = !bound then emit s code else waiting.(s) <- code :: waiting.(s) in
    let block b ~skip =
      let k = kept.(b) in
      visit (savings 0 k) b;
      List.iter (fun u -> if u <> k && u <> skip then visit (savings u k) ((u lsl 1) lor b)) tfi
    in
    try
      block 0 ~skip:0;
      lower_bound s0;
      block 1 ~skip:(if List.mem f0 tfi then f1 else 0);
      lower_bound 0
    with Stop -> ()
  end

(* ---------- Graph-wide signature-filtered collection ----------

   Divisor candidates for exact resubstitution: every PI or AND node that is
   not in the target's TFO cone (combinational-loop hazard) and sits at a
   level not above the target's, nearest-first.  With signatures, nodes that
   are constant on the sample or duplicate an already-kept divisor's
   signature (in either phase) are dropped — they cannot refine the care
   table, only blow up its size.  Hashing is over the raw signature words
   with phase normalization, collisions resolved by exact comparison, as in
   [Sim.Fraig]. *)

let collect g ?sigs ~tfo ~max v =
  let lev = Graph.levels g in
  let vlev = lev.(v) in
  let buckets = Array.make (vlev + 1) [] in
  for i = Graph.num_nodes g - 1 downto 1 do
    if (not tfo.(i)) && lev.(i) <= vlev then
      buckets.(lev.(i)) <- i :: buckets.(lev.(i))
  done;
  let keep =
    match sigs with
    | None -> fun _ -> true
    | Some sigs ->
        let rounds = if Array.length sigs = 0 then 0 else Bitvec.length sigs.(0) in
        let tail =
          let rem = rounds mod Bitvec.word_bits in
          if rem = 0 then Bitvec.word_mask else (1 lsl rem) - 1
        in
        let canon_hash s invert =
          let words = Bitvec.unsafe_words s in
          let nw = Array.length words in
          let inv = if invert then Bitvec.word_mask else 0 in
          let h = ref 0 in
          for i = 0 to nw - 1 do
            let w = words.(i) lxor inv in
            let w = if i = nw - 1 then w land tail else w in
            h := (!h * 0x9E3779B1) lxor w
          done;
          let h = !h lxor (!h lsr 16) in
          h * 0x85EBCA77 land max_int
        in
        let canon_equal a inva b invb =
          let wa = Bitvec.unsafe_words a and wb = Bitvec.unsafe_words b in
          let nw = Array.length wa in
          let eq = ref true in
          let i = ref 0 in
          if inva = invb then
            while !eq && !i < nw do
              if wa.(!i) <> wb.(!i) then eq := false;
              incr i
            done
          else
            while !eq && !i < nw do
              let m = if !i = nw - 1 then tail else Bitvec.word_mask in
              if wa.(!i) lxor wb.(!i) <> m then eq := false;
              incr i
            done;
          !eq
        in
        let classes : (int, (Bitvec.t * bool) list ref) Hashtbl.t =
          Hashtbl.create 128
        in
        fun d ->
          let s = sigs.(d) in
          if Bitvec.is_zero s || Bitvec.is_ones s then false
          else begin
            let phase = rounds > 0 && Bitvec.get s 0 in
            let h = canon_hash s phase in
            match Hashtbl.find_opt classes h with
            | None ->
                Hashtbl.add classes h (ref [ (s, phase) ]);
                true
            | Some bucket ->
                if
                  List.exists (fun (r, rp) -> canon_equal s phase r rp) !bucket
                then false
                else begin
                  bucket := (s, phase) :: !bucket;
                  true
                end
          end
  in
  let out = ref [] and count = ref 0 in
  (try
     for l = Array.length buckets - 1 downto 0 do
       List.iter
         (fun i ->
           if !count >= max then raise Exit;
           if keep i then begin
             out := i :: !out;
             incr count
           end)
         buckets.(l)
     done
   with Exit -> ());
  Array.of_list (List.rev !out)
