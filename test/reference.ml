(* Reference implementations the fast paths in lib/ are checked against.
   Each is the plain, eager version of an optimised library routine; no
   program code calls them. *)

module Graph = Aig.Graph
module Bitvec = Logic.Bitvec

(* ---------- Divisor sets (the eager form of Core.Divisor's ranked walk) ---------- *)

(* [iter_sets g ~max_tfi v f] calls [f] on each divisor set of target [v]
   (sorted node ids) until [f] answers [`Stop]: for each fanin [n], the
   set [FI \ {n}], then [(FI \ {n}) + {u}] for every [u] of
   [Core.Divisor.tfi_candidates], duplicates dropped. *)
let iter_sets g ~max_tfi v f =
  if Graph.is_and g v then begin
    let n0 = Graph.node_of (Graph.fanin0 g v) in
    let n1 = Graph.node_of (Graph.fanin1 g v) in
    let fis = if n0 = n1 then [ n0 ] else [ n0; n1 ] in
    let tfi = Core.Divisor.tfi_candidates g ~max_tfi v in
    let seen = Hashtbl.create 64 in
    let exception Stop in
    let emit set =
      let arr = Array.of_list set in
      Array.sort compare arr;
      if not (Hashtbl.mem seen arr) then begin
        Hashtbl.add seen arr ();
        match f arr with `Stop -> raise Stop | `Continue -> ()
      end
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

(* All sets of [iter_sets], in enumeration order. *)
let select g ~max_tfi v =
  let acc = ref [] in
  iter_sets g ~max_tfi v (fun set ->
      acc := set :: !acc;
      `Continue);
  List.rev !acc

(* AND nodes of the target's MFFC that actually die when the target is
   replaced by a function of [divisors]: a divisor inside the MFFC keeps
   itself and its in-MFFC transitive fanin alive.  [in_mffc] holds the
   MFFC's node ids. *)
let true_savings g ~in_mffc ~mffc_size divisors =
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

(* ---------- Simulation ---------- *)

(* PO signatures after overriding [node]'s signature with [value] and
   re-evaluating only the AND nodes marked in [tfo]; [base] is untouched.
   The reference for Errest.Batch's incremental scoring. *)
let resimulate_tfo g ~base ~tfo ~node ~value =
  let sigs = Array.copy base in
  sigs.(node) <- value;
  Graph.iter_ands g (fun id ->
      if tfo.(id) && id <> node then
        sigs.(id) <-
          Bitvec.logand
            (Sim.Engine.lit_value sigs (Graph.fanin0 g id))
            (Sim.Engine.lit_value sigs (Graph.fanin1 g id)));
  Sim.Engine.po_values g sigs

(* ---------- Two-level logic ---------- *)

(* Is minterm [m] (bit [i] = value of variable [i]) inside the cube? *)
let cube_contains (c : Logic.Cube.t) m = m land c.pos = c.pos && lnot m land c.neg = c.neg

(* A cover's value on one minterm: the reference for Cover.eval_sigs. *)
let eval_minterm (c : Logic.Cover.t) m = List.exists (fun cube -> cube_contains cube m) c.cubes
