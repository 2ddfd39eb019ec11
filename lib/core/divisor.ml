module Graph = Aig.Graph
module Bitvec = Logic.Bitvec

(* ---------- Nearest-first TFI enumeration ----------

   Descending level, ascending id within a level, straight off the cached
   SoA level view, capped AFTER ordering: the nodes structurally closest to
   the target are the divisors most likely to admit a small
   resubstitution function, so a cap must never drop them. *)

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

(* ---------- Ranked lazy walk ----------

   A target's divisor sets come in blocks, in enumeration order.  Every set
   has an integer key, and every block an upper bound on its keys.  The
   walk hands the sets out in (key descending, enumeration index ascending)
   order, i.e. what a stable sort by key yields, built only as far as the
   consumer reads.  A set reaching the bound of everything not yet
   enumerated is handed out the moment enumeration reaches it; lower ones
   wait in per-key buckets, as int codes, until the bound drops to their
   key. *)

type blocks = {
  least : int;  (* no key is lower *)
  bounds : int array;  (* per block, an upper bound on its keys *)
  enumerate : int -> (int -> int -> unit) -> unit;
      (* [enumerate b visit] calls [visit key code] on block [b]'s sets *)
  set_of : int -> int array;  (* the divisor set of a code *)
}

let iter_ranked t f =
  let n = Array.length t.bounds in
  (* [rest.(b)] bounds every set of blocks [b] onwards. *)
  let rest = Array.make (n + 1) t.least in
  for b = n - 1 downto 0 do
    rest.(b) <- max t.bounds.(b) rest.(b + 1)
  done;
  let bound = ref rest.(0) in
  let waiting = Array.make (!bound - t.least) [] in
  let exception Stop in
  let emit key code =
    match f ~key (t.set_of code) with `Stop -> raise Stop | `Continue -> ()
  in
  (* Hand out every waiting set at or above [down_to], best first. *)
  let lower_bound down_to =
    for key = !bound - 1 downto down_to do
      List.iter (emit key) (List.rev waiting.(key - t.least));
      waiting.(key - t.least) <- []
    done;
    bound := down_to
  in
  let visit key code =
    if key = !bound then emit key code
    else waiting.(key - t.least) <- code :: waiting.(key - t.least)
  in
  try
    for b = 0 to n - 1 do
      t.enumerate b visit;
      lower_bound rest.(b + 1)
    done
  with Stop -> ()

(* A set's savings, by popcount: the AND nodes of the target's MFFC that
   die when the target is replaced by a function of the set (a divisor
   inside the MFFC keeps itself and its in-MFFC fanin alive).  It is the
   MFFC size [m] minus the size of the union of the divisors' in-MFFC fanin
   closures, so with one closure bitset per MFFC node every set's savings
   is a popcount, and a divisor outside the MFFC changes nothing.  Returns
   [m], [local] (a node's position in the MFFC, -1 outside) and [savings]
   of a set of at most three divisors given by their positions (-1 outside
   the MFFC or absent). *)
let closure_savings g mffc =
  let members = Array.of_list mffc in
  Array.sort compare members;
  let m = Array.length members in
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
  let one j = if j < 0 then m else m - size.(j) in
  let two a b =
    if a < 0 then one b
    else if b < 0 then one a
    else m - ((size.(a) + size.(b) + Bitvec.popcount_xor closure.(a) closure.(b)) / 2)
  in
  let union = Bitvec.create m in
  let savings a b c =
    if c < 0 then two a b
    else if a < 0 then two b c
    else if b < 0 then two a c
    else begin
      Bitvec.blit closure.(a) union;
      Bitvec.logor_inplace union closure.(b);
      Bitvec.logor_inplace union closure.(c);
      m - Bitvec.popcount union
    end
  in
  (m, local, savings)

(* Folding in [Graph.and_] gives every AND two distinct non-constant fanins
   [f0 < f1], so the LAC sets are block 0 = {f1}, {u, f1} for u
   in the TFI list, then block 1 = {f0}, {u, f0}; the only duplicate is
   {f0, f1}, emitted in block 0 when [f0] survived the [max_tfi] cap and in
   block 1 otherwise.  Adding a divisor never raises the savings, so block
   b is bounded by the savings of its kept fanin alone.  A set is coded as
   [2u + block], [u = 0] for the singleton: node 0 is never a TFI
   candidate. *)
let lac_blocks g ~max_tfi ~mffc v =
  if not (Graph.is_and g v) then
    { least = 0; bounds = [||]; enumerate = (fun _ _ -> ()); set_of = (fun _ -> [||]) }
  else begin
    let f0 = Graph.node_of (Graph.fanin0 g v) in
    let f1 = Graph.node_of (Graph.fanin1 g v) in
    let tfi = tfi_candidates g ~max_tfi v in
    let _, local, savings = closure_savings g mffc in
    let kept = [| f1; f0 |] in
    let kept_pos = Array.map local kept in
    let skip = [| 0; (if List.mem f0 tfi then f1 else 0) |] in
    let single b = savings kept_pos.(b) (-1) (-1) in
    {
      least = 0;
      bounds = [| single 0; single 1 |];
      enumerate =
        (fun b visit ->
          let k = kept.(b) and kp = kept_pos.(b) and skip = skip.(b) in
          visit (single b) b;
          List.iter
            (fun u ->
              if u <> k && u <> skip then visit (savings (local u) kp (-1)) ((u lsl 1) lor b))
            tfi);
      set_of =
        (fun code ->
          let u = code lsr 1 and k = kept.(code land 1) in
          if u = 0 then [| k |] else if u < k then [| u; k |] else [| k; u |]);
    }
  end

(* Exact resub's sets are positions i < j < l in [divs], coded as the
   base-(n + 1) digits i + 1, j + 1, l + 1, lowest first (0 = absent).
   Savings never exceed the MFFC size [m], so a k-set's key is at most
   m - (k - 1) and at least -2. *)
let resub_blocks g ~mffc ~pairs ~triples divs =
  let n = Array.length divs in
  let m, local, savings = closure_savings g mffc in
  let pos = Array.map local divs in
  let base = n + 1 in
  let rec digits code =
    if code = 0 then [] else divs.((code mod base) - 1) :: digits (code / base)
  in
  let nt = min n triples and np = min n pairs in
  {
    least = -2;
    bounds = [| m - 2; m - 1; m |];
    enumerate =
      (fun b visit ->
        match b with
        | 0 ->
            for i = 0 to nt - 1 do
              for j = i + 1 to nt - 1 do
                for l = j + 1 to nt - 1 do
                  visit
                    (savings pos.(i) pos.(j) pos.(l) - 2)
                    (i + 1 + (base * (j + 1 + (base * (l + 1)))))
                done
              done
            done
        | 1 ->
            for i = 0 to np - 1 do
              for j = i + 1 to np - 1 do
                visit (savings pos.(i) pos.(j) (-1) - 1) (i + 1 + (base * (j + 1)))
              done
            done
        | _ ->
            for i = 0 to n - 1 do
              visit (savings pos.(i) (-1) (-1)) (i + 1)
            done);
    set_of = (fun code -> Array.of_list (digits code));
  }

(* ---------- Graph-wide signature-filtered collection ----------

   Divisor candidates for exact resubstitution: every PI or AND node that is
   not in the target's TFO cone (combinational-loop hazard) and sits at a
   level not above the target's, nearest-first.  With signatures, nodes that
   are constant on the sample or duplicate an already-kept divisor's
   signature (in either phase) are dropped — they cannot refine the care
   table, only blow up its size.  Classes are keyed by the phase-canonical
   signature ([Bitvec.canon_hash]), as in [Sim.Fraig]. *)

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
        let classes : (int, Bitvec.t list ref) Hashtbl.t = Hashtbl.create 128 in
        fun d ->
          let s = sigs.(d) in
          (not (Bitvec.is_zero s || Bitvec.is_ones s))
          &&
          let h = Bitvec.canon_hash s in
          match Hashtbl.find_opt classes h with
          | None ->
              Hashtbl.add classes h (ref [ s ]);
              true
          | Some bucket ->
              (not (List.exists (Bitvec.canon_equal s) !bucket))
              && begin
                   bucket := s :: !bucket;
                   true
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
