(** Local-approximate-change candidates (Algorithm 2).

    A LAC replaces target node [V] by a function of a feasible divisor set,
    derived from the approximate care set.  [gain] is the estimated AND-gate
    saving: the target's MFFC nodes that truly die (divisor cones inside the
    MFFC stay alive) minus the factored-form cost.  Candidates with negative
    estimates are dropped; the flow separately verifies real progress on the
    rebuilt graph, since structural hashing can shift the estimate in either
    direction. *)

type t = {
  target : int;
  divisors : int array;
  cover : Logic.Cover.t;
  expr : Logic.Factor.expr;
  gain : int;
}

val generate :
  ?obs:Logic.Bitvec.t array ->
  ?pool:Parallel.Pool.t ->
  Aig.Graph.t ->
  config:Config.t ->
  sigs:Logic.Bitvec.t array ->
  rounds:int ->
  t list
(** [sigs] are node signatures of the care-pattern simulation ([rounds]
    rounds, cf. Algorithm 2 line 1).  At most [config.lac_limit] candidates
    per node.  Each node's divisor sets ({!Divisor.lac_blocks}) are
    visited in savings order ({!Divisor.iter_ranked}) and tried one at a
    time ({!Resub.attempt}), until the node's quota is met or the savings
    drop below one AND.  [obs] (per-node
    observability masks) enables the ODC-aware care sets of
    [Config.use_odc].  With [?pool], target nodes are processed
    concurrently; the returned list — contents and order — is identical at
    any pool size. *)

val replacement : t -> Aig.Graph.replacement

val pp : Format.formatter -> t -> unit
