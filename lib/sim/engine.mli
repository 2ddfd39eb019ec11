(** Word-parallel AIG simulation.

    The signature of a node is the vector of its values over all simulation
    rounds; all rounds are processed 62 at a time. *)

val simulate :
  ?pool:Parallel.Pool.t -> Aig.Graph.t -> Logic.Bitvec.t array -> Logic.Bitvec.t array
(** [simulate g inputs] with [inputs.(i)] the pattern signature of PI [i]
    (all the same length) returns per-node signatures indexed by node id.
    The constant node's signature is all-zero.

    With [?pool], the pattern words are sharded across the pool (each shard
    sweeps the whole graph over its own word slice).  Word columns are
    independent, so the result is bit-identical to the sequential sweep at
    any pool size. *)

val po_values : Aig.Graph.t -> Logic.Bitvec.t array -> Logic.Bitvec.t array
(** Apply PO literals (complement included) to node signatures. *)

val simulate_pos :
  ?pool:Parallel.Pool.t -> Aig.Graph.t -> Logic.Bitvec.t array -> Logic.Bitvec.t array
(** [po_values g (simulate ?pool g inputs)]. *)

val lit_value : Logic.Bitvec.t array -> Aig.Graph.lit -> Logic.Bitvec.t
(** Signature of a literal (fresh vector when complemented). *)
