module Graph = Aig.Graph
module Bitvec = Logic.Bitvec

type config = {
  rounds : int;
  seed : int;
  max_passes : int;
  cec_rounds : int;
}

let default =
  {
    rounds = 1024;
    seed = 1;
    max_passes = 4;
    cec_rounds = 256;
  }

(* Independent re-simulation rounds gating each commit before CEC on
   non-exhaustive sweeps. *)
let check_rounds = 2048

(* Consecutive [Undecided] verdicts after which a sweep stops attempting
   commits. *)
let undecided_patience = 4

type stats = {
  passes : int;
  targets : int;
  derived : int;
  accepted : int;
  sim_refuted : int;
  cec_undecided : int;
  cec_refuted : int;
  batch : Errest.Batch.stats;
}

let zero_stats =
  {
    passes = 0;
    targets = 0;
    derived = 0;
    accepted = 0;
    sim_refuted = 0;
    cec_undecided = 0;
    cec_refuted = 0;
    batch = Errest.Batch.zero_stats;
  }

let add_stats a b =
  {
    passes = a.passes + b.passes;
    targets = a.targets + b.targets;
    derived = a.derived + b.derived;
    accepted = a.accepted + b.accepted;
    sim_refuted = a.sim_refuted + b.sim_refuted;
    cec_undecided = a.cec_undecided + b.cec_undecided;
    cec_refuted = a.cec_refuted + b.cec_refuted;
    batch = Errest.Batch.add_stats a.batch b.batch;
  }

(* A derived candidate replacement for one target: the factored function
   over the divisors, its signature on the sweep's pattern set, and the net
   AND saving it promises (MFFC nodes freed minus gates instantiated). *)
type cand = {
  divisors : int array;
  expr : Logic.Factor.expr;
  new_sig : Bitvec.t;
  gain : int;
}

(* Per target: the divisor collection cap; the nearest divisors whose pairs
   and triples are tried (the quadratic and cubic neighbourhoods are where
   care-scan time goes; every collected divisor is tried alone); and the
   derivations, in the walk's order, before the target is left. *)
let max_divisors = 48
let pair_divisors = 20
let triple_divisors = 10
let derivations_per_target = 4

(* One sweep over a fixed (compacted) graph [g].  Candidates are discovered
   on [g]'s signatures and committed as an ACCUMULATED replacement map: each
   acceptance rebuilds [g] with all replacements so far and certifies the
   rebuilt graph equivalent to [g] with the CEC portfolio — so every commit
   point of the sweep is machine-proven, and an [Undecided] verdict rolls
   the candidate back instead of trusting simulation.  Sequential by
   construction; the pool only accelerates bit-identical simulation and
   batch scoring, so the sweep's result is the same at any pool size. *)
let sweep ?pool (cfg : config) ~rng g =
  let n = Graph.num_nodes g in
  let npis = Graph.num_pis g in
  let st = ref { zero_stats with passes = 1 } in
  (* Exhaustive patterns when the input space fits: the care table is then
     exact, so every feasible candidate is a true resubstitution and the
     CEC check can only confirm. *)
  let exhaustive = Sim.Patterns.fits_exhaustive ~npis ~rounds:(max cfg.rounds 1024) in
  let pats =
    if exhaustive then Sim.Patterns.exhaustive ~npis
    else Sim.Patterns.random rng ~npis ~len:cfg.rounds
  in
  let rounds = if Array.length pats > 0 then Bitvec.length pats.(0) else 0 in
  let sigs = Sim.Engine.simulate ?pool g pats in
  let golden = Sim.Engine.po_values g sigs in
  (* On non-exhaustive sweeps a candidate that survives the care table and
     the scoring kernel is still only simulation-supported.  A second,
     independent pattern set filters almost all of the impostors at
     simulation cost, so the expensive CEC stage below runs (almost) only
     on true resubstitutions — without it, graphs whose node count dwarfs
     the pattern budget drown the sweep in portfolio calls that can only
     end Refuted or Undecided. *)
  let check =
    if exhaustive then None
    else begin
      let cpats = Sim.Patterns.random rng ~npis ~len:check_rounds in
      let cgolden = Sim.Engine.po_values g (Sim.Engine.simulate ?pool g cpats) in
      Some (cpats, cgolden)
    end
  in
  let batch =
    Errest.Batch.create g ~metric:Errest.Metrics.Er ~golden ~base:sigs
  in
  (* Counterexample feedback — the refinement loop of the source paper,
     with the CEC portfolio in the SAT solver's seat: every witness a
     refuted commit produces becomes a permanent pattern that all later
     candidates of the sweep must survive at simulation cost.  Wrongly
     derived functions on one circuit tend to fail on the same few corner
     inputs (the ones uniform patterns essentially never draw), so a
     handful of witnesses replaces hundreds of portfolio calls. *)
  let cex_inputs = ref [] and cex_count = ref 0 in
  let cex_pats = ref None in
  let add_cex (c : Verify.Cec.counterexample) =
    cex_inputs := c.Verify.Cec.inputs :: !cex_inputs;
    incr cex_count;
    let m = !cex_count in
    (* Witnesses are stored most-recent-first; position in the pattern
       words is irrelevant as long as pats and golden agree. *)
    let pats =
      Array.init npis (fun i ->
          let v = Bitvec.create m in
          List.iteri (fun j ins -> Bitvec.set v j ins.(i)) !cex_inputs;
          v)
    in
    let gold = Sim.Engine.po_values g (Sim.Engine.simulate g pats) in
    cex_pats := Some (pats, gold)
  in
  let cex_ok g' =
    match !cex_pats with
    | None -> true
    | Some (cpats, gold) ->
        let pos = Sim.Engine.po_values g' (Sim.Engine.simulate g' cpats) in
        Array.for_all2 Bitvec.equal pos gold
  in
  let fanouts = Aig.Topo.fanout_counts g in
  (* Nodes scheduled to die with an already-accepted replacement: skipping
     them avoids wasted scans, nothing more — the AND-count check below is
     the arbiter of real progress. *)
  let removed = Array.make n false in
  let replacements : (int, Graph.replacement) Hashtbl.t = Hashtbl.create 16 in
  let cur = ref g and cur_ands = ref (Graph.num_ands g) in
  (* When the portfolio answers [Undecided] several times in a row the
     graph is one it structurally cannot close delta miters on (deep
     arithmetic: dividers, square roots) — every further attempt would buy
     the same ~seconds-long rollback.  The streak is deterministic (a
     function of the graph and the seed), so giving up on it preserves the
     byte-identity contract; a later pass starts with fresh patience. *)
  let undecided_streak = ref 0 in
  let gave_up () = !undecided_streak >= undecided_patience in
  let try_commit v (c : cand) ~mffc =
    Hashtbl.replace replacements v (Graph.Replace_expr (c.expr, c.divisors));
    let rollback () = Hashtbl.remove replacements v in
    match Graph.rebuild ~replace:(fun id -> Hashtbl.find_opt replacements id) g with
    | exception Failure _ ->
        (* A combinational cycle: impossible by construction (divisors are
           collected outside the target's TFO), kept as a hard guard. *)
        rollback ()
    | g' ->
        if Graph.num_ands g' >= !cur_ands then rollback ()
        else if
          (not (cex_ok g'))
          ||
          match check with
          | None -> false
          | Some (cpats, cgolden) ->
              let pos =
                Sim.Engine.po_values g' (Sim.Engine.simulate ?pool g' cpats)
              in
              not (Array.for_all2 Bitvec.equal pos cgolden)
        then begin
          rollback ();
          st := { !st with sim_refuted = !st.sim_refuted + 1 }
        end
        else begin
          (* Certify the ACCUMULATED transform [g -> g'].  Rebuilding from
             the sweep's base graph re-proves the earlier acceptances too;
             their shared structure folds away in the miter, so the marginal
             cost is the new replacement. *)
          match
            Verify.Cec.run ~seed:(cfg.seed + 0xE5B) ~rounds:cfg.cec_rounds
              ~effort:Verify.Cec.Fast g g'
          with
          | Verify.Cec.Equivalent ->
              undecided_streak := 0;
              cur := g';
              cur_ands := Graph.num_ands g';
              st := { !st with accepted = !st.accepted + 1 };
              List.iter (fun id -> removed.(id) <- true) mffc
          | Verify.Cec.Undecided _ ->
              incr undecided_streak;
              rollback ();
              st := { !st with cec_undecided = !st.cec_undecided + 1 }
          | Verify.Cec.Inequivalent c ->
              add_cex c;
              rollback ();
              st := { !st with cec_refuted = !st.cec_refuted + 1 }
        end
  in
  Graph.iter_ands g (fun v ->
      if fanouts.(v) > 0 && (not (removed.(v))) && not (gave_up ()) then begin
        st := { !st with targets = !st.targets + 1 };
        let mffc = Aig.Cone.mffc g ~fanouts v in
        let sig_v = sigs.(v) in
        (* 0-resub: the target is constant on every simulated pattern. *)
        let const_cand =
          if rounds > 0 && (Bitvec.is_zero sig_v || Bitvec.is_ones sig_v) then
            Some
              {
                divisors = [||];
                expr = Logic.Factor.Const (Bitvec.get sig_v 0);
                new_sig = sig_v;
                gain = List.length mffc;
              }
          else None
        in
        let derived_cand =
          if const_cand <> None then None
          else begin
            let tfo = Aig.Cone.tfo_mask g v in
            let divs = Divisor.collect g ~sigs ~tfo ~max:max_divisors v in
            let blocks =
              Divisor.resub_blocks g ~mffc ~pairs:pair_divisors ~triples:triple_divisors
                divs
            in
            let best = ref None and derived = ref 0 in
            (* The walk's key is the savings less the k - 1 ANDs that k
               divisors need at least: the best gain the set can deliver. *)
            Divisor.iter_ranked blocks (fun ~key set ->
                if key < 1 then `Stop
                else begin
                  let savings = key + Array.length set - 1 in
                  (match Resub.attempt ~sigs ~rounds ~node:v ~savings set with
                  | Some (cover, expr, gain) ->
                      incr derived;
                      let better =
                        match !best with None -> true | Some c -> gain > c.gain
                      in
                      if gain >= 1 && better then begin
                        let pos_sigs = Array.map (fun d -> sigs.(d)) set in
                        let new_sig = Logic.Cover.eval_sigs cover ~pos_sigs in
                        best := Some { divisors = set; expr; new_sig; gain }
                      end
                  | None -> ());
                  if !derived >= derivations_per_target then `Stop else `Continue
                end);
            st := { !st with derived = !st.derived + !derived };
            !best
          end
        in
        match (const_cand, derived_cand) with
        | None, None -> ()
        | Some c, _ | None, Some c ->
            (* Route the candidate through the event-driven scoring kernel:
               an exact resubstitution must leave every PO signature
               untouched on the sweep's patterns.  A non-zero error here
               means the ISOP/factoring pipeline disagrees with the care
               table — a bug trap, counted and skipped, never committed. *)
            let err =
              Errest.Batch.candidate_error batch ~node:v ~new_sig:c.new_sig
            in
            if Float.equal err 0.0 then try_commit v c ~mffc
      end);
  st := { !st with batch = Errest.Batch.stats batch };
  (!cur, !st)

let run ?pool ?(config = default) g0 =
  let g = ref (Graph.compact g0) in
  let stats = ref zero_stats in
  let rng = Logic.Rng.create config.seed in
  let progress = ref true in
  while
    !progress
    && !stats.passes < config.max_passes
    && Graph.num_pis !g > 0
    && Graph.num_ands !g > 0
  do
    let g', st = sweep ?pool config ~rng !g in
    (* [rebuild] already dropped the freed logic; compact only re-numbers. *)
    g := Graph.compact g';
    stats := add_stats !stats st;
    progress := st.accepted > 0
  done;
  (* Right-size the result, as [Flow.run] does: a caller keeping many
     results would otherwise keep every graph's growth slack alive. *)
  Graph.trim !g;
  (!g, !stats)
