(** Per-pattern output sensitivity by a single backward sweep.

    [masks g ~sigs] returns, per node, a vector whose bit [m] estimates
    whether flipping the node's value in round [m] flips at least one PO,
    propagating the Boolean difference backwards edge-by-edge.  The estimate
    is exact on fanout-free trees; under reconvergence it is a heuristic in
    both directions (parallel paths may cancel a flagged flip, or jointly
    propagate an unflagged one).  This is the change-propagation half of Su
    et al.'s estimator family and serves as a cheap ranking signal; the
    authoritative answer is {!Batch}'s resimulation of the node's
    transitive fanout. *)

val masks : Aig.Graph.t -> sigs:Logic.Bitvec.t array -> Logic.Bitvec.t array
